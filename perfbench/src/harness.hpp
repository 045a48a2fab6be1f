#pragma once
/// \file harness.hpp
/// \brief End-to-end benchmark harness: construct → factor → solve on the
/// named workloads through hatrix's public API, with a correctness check on
/// every solution and a traced mode that reports per-layer metrics.
///
/// A run repeats the whole chain — set-up, HSS construction, ULV
/// factorization, a batch of solve requests — until the requested number of
/// seconds has passed. Every solution's sampled residual against the true
/// kernel operator must be within the workload's tolerance, and every
/// chain's solution of request 0 must be bit-identical to the first chain's.
/// A failed check or a thrown error counts as one failure; nothing is
/// dropped.
///
/// With `trace` on, even-numbered chains run instrumented (a counting
/// BlockAccessor around the kernel matrix, flop-counter deltas, per-kind task
/// time, critical path) and odd-numbered chains run exactly like an
/// untraced run, so the tracing overhead is measured within the same run.
/// All spans are recorded in the harness, around calls into each layer's
/// public functions; the library itself is not instrumented.
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Settings of one run (parsed from the command line, see cli.hpp).
struct Config {
  std::string workload;                    ///< one of workload_names()
  std::uint64_t seed = 1;                  ///< right-hand sides, noise, targets, residual rows
  std::uint64_t instance_seed = 0;         ///< kriging sites + HSS sampling seed (0: the examples')
  double seconds = 10.0;                   ///< chain loop duration
  bool trace = false;                      ///< per-layer metrics instead of end-to-end
  double residual_tol = 0.0;               ///< sampled-residual tolerance (> 0, required)
  std::int64_t n = 0;                      ///< self-test: problem size (0: the workload's)
  std::string log_dir = "perfbench-logs";  ///< guard-note log and span dump go here
  bool corrupt = false;                    ///< self-test: corrupt the second solution
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< human-readable detail (sample count, percentile)
};

/// Outcome of one run.
struct Result {
  bool correct = false;       ///< no failure and every accounting check held
  std::int64_t attempted = 0; ///< chains (and streamed requests) attempted
  std::int64_t failed = 0;    ///< of those, how many failed a check or threw
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< one line per failure or check miss
  std::string summary;                ///< what ran: chains, requests, wall time
};

/// Names of the benchmark's workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Run one workload. Throws on an unknown workload or an I/O error; numerical
/// failures are counted in the result instead.
Result run_workload(const Config& cfg);

/// The machine-readable last line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const Result& r);

/// Human-readable report: verdict, then one line per metric with its unit.
std::string result_text(const Config& cfg, const Result& r);

/// Names and units every run emits: end-to-end ones untraced, per-layer ones
/// traced. The self-test checks a run's metrics against these lists.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

}  // namespace perfbench
