// perfbench: the repository benchmark driver.
//
//   perfbench --workload <fig5-verify|threat-space|fleet-replay> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke] [--out-dir dir]
//
// Prints the environment, human-readable figures, and as its last line one
// JSON object {"correct","attempted","failed","metrics"}: end-to-end metrics
// with --trace 0, per-layer metrics with --trace 1.
#include <cstdio>
#include <exception>

#include "common.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    print_environment();
    std::printf("workload=%s seed=%llu seconds=%g trace=%d%s\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0,
                args.smoke ? " smoke" : "");
    RunResult result;
    if (args.workload == "fig5-verify") {
      result = run_closed_loop(args, plan_fig5_verify(args));
    } else if (args.workload == "threat-space") {
      result = run_closed_loop(args, plan_threat_space(args));
    } else if (args.workload == "fleet-replay") {
      result = run_fleet_replay(args);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    std::printf("outputs: sent=%llu succeeded=%llu failed=%llu error_rate=%.6f\n",
                static_cast<unsigned long long>(result.gate.sent()),
                static_cast<unsigned long long>(result.gate.sent() - result.gate.failed()),
                static_cast<unsigned long long>(result.gate.failed()), result.gate.error_rate());
    print_metrics(result.metrics);
    print_result_line(result);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
