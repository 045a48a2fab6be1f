// Self-test of the perfbench harness. Runs every workload at small N,
// untraced and traced, and checks that
//   * the command line accepts --help and rejects unknown or malformed flags;
//   * every declared metric is emitted, with its unit, and nothing else;
//   * a clean run is correct, and its end-to-end metrics are finite and
//     nonzero;
//   * a run whose second solution is deliberately corrupted counts that
//     chain as failed and is not correct.
//
//   perfbench_selftest        (or: ctest --test-dir .bench_build/perfbench)
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "cli.hpp"
#include "harness.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "  ok  " : "  FAIL", what.c_str());
  if (!ok) ++g_failures;
}

perfbench::ParseOutcome parse(std::vector<const char*> args) {
  args.insert(args.begin(), "perfbench");
  perfbench::Config cfg;
  std::string error;
  return perfbench::parse_args(static_cast<int>(args.size()), args.data(), cfg, error);
}

void test_cli() {
  using perfbench::ParseOutcome;
  const char* w = "--workload=yukawa_grid";
  expect(parse({"--help"}) == ParseOutcome::Help, "--help asks for usage");
  expect(parse({w, "--residual-tol", "1e-3", "--seed", "7", "--seconds", "2.5", "--trace", "1"}) ==
             ParseOutcome::Run,
         "well-formed flags parse");
  expect(parse({w, "--residual-tol", "1e-3", "--laef", "64"}) == ParseOutcome::Error,
         "unknown flag is rejected");
  expect(parse({w, "--residual-tol", "1e-3", "--seed", "12x"}) == ParseOutcome::Error,
         "malformed integer is rejected");
  expect(parse({w, "--residual-tol", "1e-3", "--seconds", "0"}) == ParseOutcome::Error,
         "non-positive duration is rejected");
  expect(parse({w, "--residual-tol", "1e-3", "--trace", "2"}) == ParseOutcome::Error,
         "--trace other than 0/1 is rejected");
  expect(parse({"--workload", "nope", "--residual-tol", "1e-3"}) == ParseOutcome::Error,
         "unknown workload is rejected");
  expect(parse({w}) == ParseOutcome::Error, "missing --residual-tol is rejected");
  expect(parse({w, "--residual-tol"}) == ParseOutcome::Error, "flag without value is rejected");
  expect(parse({"yukawa_grid"}) == ParseOutcome::Error, "bare argument is rejected");
}

bool emits_exactly(const perfbench::Result& r,
                   const std::vector<std::pair<std::string, std::string>>& want) {
  if (r.metrics.size() != want.size()) return false;
  for (std::size_t i = 0; i < want.size(); ++i)
    if (r.metrics[i].name != want[i].first || r.metrics[i].unit != want[i].second ||
        !std::isfinite(r.metrics[i].value))
      return false;
  return true;
}

void test_workload(const std::string& name, std::int64_t n) {
  perfbench::Config cfg;
  cfg.workload = name;
  cfg.seed = 3;
  cfg.seconds = 0.01;  // the minimum two chains
  cfg.n = n;
  cfg.residual_tol = 1e-1;
  cfg.log_dir = "selftest-logs";
  const std::string tag = name + " (N=" + std::to_string(n) + ")";

  const perfbench::Result plain = perfbench::run_workload(cfg);
  expect(plain.correct && plain.failed == 0 && plain.attempted >= 2,
         tag + ": clean run is correct");
  expect(emits_exactly(plain, perfbench::end_to_end_metrics()),
         tag + ": every end-to-end metric emitted with its unit");
  bool nonzero = true;
  for (const auto& m : plain.metrics) nonzero = nonzero && m.value != 0.0;
  expect(nonzero, tag + ": end-to-end metrics are nonzero");
  const std::string json = perfbench::result_json(plain);
  expect(json.rfind("{\"correct\": true, \"attempted\": ", 0) == 0 &&
             json.find("\"time_to_solution_s\": {\"value\": ") != std::string::npos,
         tag + ": JSON result line");

  cfg.trace = true;
  const perfbench::Result traced = perfbench::run_workload(cfg);
  expect(traced.correct, tag + ": traced run is correct (guard notes match rank escapes)");
  expect(emits_exactly(traced, perfbench::per_layer_metrics()),
         tag + ": every per-layer metric emitted with its unit");

  cfg.trace = false;
  cfg.corrupt = true;
  const perfbench::Result bad = perfbench::run_workload(cfg);
  expect(!bad.correct && bad.failed == 1 && bad.attempted == plain.attempted,
         tag + ": corrupted solution counted as one failure");
}

}  // namespace

int main() {
  try {
    test_cli();
    test_workload("yukawa_grid", 2048);
    test_workload("matern_kriging", 1024);
    test_workload("bem_solve_stream", 2048);
  } catch (const std::exception& e) {
    std::printf("  FAIL uncaught exception: %s\n", e.what());
    ++g_failures;
  }
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASSED" : "FAILED", g_failures);
  return g_failures == 0 ? 0 : 1;
}
