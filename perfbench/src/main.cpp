// perfbench: the repository benchmark's binary.
//
//   perfbench --workload <flood-rtt|bigframe-sim|sybil-churn-sim|passthrough>
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Prints a human-readable report, then as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exit 0 when every
// output check passed, 1 when one failed, 2 on bad flags.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hpp"

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (argc % 2 == 0 || opt.work_dir.empty() || opt.seconds <= 0) {
    std::fprintf(stderr, "usage: perfbench --workload W --seed N --seconds S "
                         "--trace 0|1 --work-dir DIR\n");
    return 2;
  }

  perfbench::RunResult result;
  if (opt.workload == "flood-rtt") {
    result = perfbench::RunFloodRtt(opt);
  } else if (opt.workload == "bigframe-sim") {
    result = perfbench::RunBigframeSim(opt);
  } else if (opt.workload == "sybil-churn-sim") {
    result = perfbench::RunSybilChurnSim(opt);
  } else if (opt.workload == "passthrough") {
    result = perfbench::RunPassthroughCheck(opt);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  std::fflush(stdout);
  std::printf("%s\n", perfbench::ResultJson(result).c_str());
  return result.correct ? 0 : 1;
}
