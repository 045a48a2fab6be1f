// perfbench: the repository benchmark. Runs one workload through
// construct -> factor -> solve and prints its report; the last line of
// standard output is the JSON result. See ../README.md.
//
//   perfbench --workload yukawa_grid --seed 1 --seconds 15 --trace 0
#include <cstdio>
#include <exception>
#include <string>

#include "cli.hpp"
#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  Config cfg;
  std::string error;
  switch (parse_args(argc, argv, cfg, error)) {
    case ParseOutcome::Help:
      std::fputs(usage(argv[0]).c_str(), stdout);
      return 0;
    case ParseOutcome::Error:
      std::fprintf(stderr, "perfbench: %s\n\n%s", error.c_str(), usage(argv[0]).c_str());
      return 2;
    case ParseOutcome::Run:
      break;
  }
  try {
    const Result r = run_workload(cfg);
    if (r.metrics.empty()) {  // no chain completed: there is nothing to report
      std::fputs(result_text(cfg, r).c_str(), stderr);
      return 1;
    }
    std::fputs(result_text(cfg, r).c_str(), stdout);
    std::puts(result_json(r).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
