#include "cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace perfbench {
namespace {

// Whole-string numeric parses: trailing junk, empty strings and out-of-range
// values are rejected rather than truncated.
bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s[0] == '-' || s[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  out = v;
  return true;
}

bool parse_double(const std::string& s, double& out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size() || !std::isfinite(v)) return false;
  out = v;
  return true;
}

}  // namespace

std::string usage(const std::string& program) {
  std::string names;
  for (const auto& w : workload_names()) names += (names.empty() ? "" : ", ") + w;
  return "usage: " + program +
         " --workload NAME --residual-tol X [--seed N] [--seconds S]\n"
         "       [--trace 0|1] [--instance-seed N] [--log-dir DIR]\n"
         "\n"
         "Runs construct -> factor -> solve on one workload until S seconds have\n"
         "passed, checks every solution, and prints a report whose last line is\n"
         "one JSON object {correct, attempted, failed, metrics}.\n"
         "\n"
         "  --workload NAME     one of: " + names + "\n"
         "  --seed N            workload seed: right-hand sides, observation noise,\n"
         "                      prediction targets, residual rows (default 1)\n"
         "  --instance-seed N   also redraw the operator instance: kriging sites and\n"
         "                      the HSS sampling seed (default: the examples' own)\n"
         "  --seconds S         how long the chain loop runs, 0 < S <= 600 (default 10)\n"
         "  --trace 0|1         1: report per-layer metrics instead of end-to-end\n"
         "  --residual-tol X    tolerance on the sampled true-operator residual; run.py\n"
         "                      passes the one BENCHMARK.json records for the workload\n"
         "  --log-dir DIR       where captured library notes and spans go\n"
         "                      (default perfbench-logs)\n"
         "  --help              print this text and exit\n";
}

ParseOutcome parse_args(int argc, const char* const* argv, Config& cfg,
                        std::string& error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return ParseOutcome::Help;
    if (arg.rfind("--", 0) != 0 || arg.size() == 2) {
      error = "unexpected argument '" + arg + "'";
      return ParseOutcome::Error;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
      has_value = true;
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        error = "--" + name + " needs a value";
        return ParseOutcome::Error;
      }
      value = argv[++i];
    }
    const auto bad = [&](const std::string& why) {
      error = "--" + name + " '" + value + "': " + why;
      return ParseOutcome::Error;
    };
    if (name == "workload") {
      const auto& names = workload_names();
      if (std::find(names.begin(), names.end(), value) == names.end())
        return bad("unknown workload");
      cfg.workload = value;
      have_workload = true;
    } else if (name == "seed") {
      if (!parse_u64(value, cfg.seed)) return bad("not a non-negative integer");
    } else if (name == "instance-seed") {
      if (!parse_u64(value, cfg.instance_seed) || cfg.instance_seed == 0)
        return bad("not a positive integer");
    } else if (name == "seconds") {
      if (!parse_double(value, cfg.seconds) || cfg.seconds <= 0.0 || cfg.seconds > 600.0)
        return bad("not a number in (0, 600]");
    } else if (name == "trace") {
      if (value != "0" && value != "1") return bad("must be 0 or 1");
      cfg.trace = value == "1";
    } else if (name == "residual-tol") {
      if (!parse_double(value, cfg.residual_tol) || cfg.residual_tol <= 0.0)
        return bad("not a positive number");
    } else if (name == "log-dir") {
      if (value.empty()) return bad("empty path");
      cfg.log_dir = value;
    } else {
      error = "unknown flag --" + name;
      return ParseOutcome::Error;
    }
  }
  if (!have_workload || cfg.residual_tol <= 0.0) {
    error = have_workload ? "--residual-tol is required" : "--workload is required";
    return ParseOutcome::Error;
  }
  return ParseOutcome::Run;
}

}  // namespace perfbench
