// Optimization-subsystem benchmarks (google-benchmark): the queries the
// MaxSAT engine adds on top of the plain analyzer.
//
//   * security_index: minimum-cardinality attack on the case study, per
//     MaxSAT strategy (linear descent vs core-guided) and backend,
//   * min_cost_hardening: CEGIS cheapest-upgrade synthesis on the case study.
//
// write_summary() re-times the security index directly (best of 3) and
// emits BENCH_optimize.json with its latency and value.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "scada/core/case_study.hpp"
#include "scada/core/optimize.hpp"
#include "scada/util/timer.hpp"

namespace {

using namespace scada;
using core::Property;
using core::ResiliencySpec;

core::OptimizerOptions optimizer_options(smt::Backend backend, smt::MaxSatStrategy strategy) {
  core::OptimizerOptions o;
  o.analyzer.solver.backend = backend;
  o.strategy = strategy;
  return o;
}

void BM_SecurityIndex_CaseStudy(benchmark::State& state) {
  const auto backend = static_cast<smt::Backend>(state.range(0));
  const auto strategy = static_cast<smt::MaxSatStrategy>(state.range(1));
  const core::ScadaScenario scenario = core::make_case_study();
  for (auto _ : state) {
    core::Optimizer optimizer(scenario, optimizer_options(backend, strategy));
    benchmark::DoNotOptimize(optimizer.security_index(Property::SecuredObservability));
  }
}
BENCHMARK(BM_SecurityIndex_CaseStudy)
    ->Args({static_cast<int>(smt::Backend::Cdcl), static_cast<int>(smt::MaxSatStrategy::Linear)})
    ->Args({static_cast<int>(smt::Backend::Cdcl),
            static_cast<int>(smt::MaxSatStrategy::CoreGuided)})
    ->Args({static_cast<int>(smt::Backend::Z3), static_cast<int>(smt::MaxSatStrategy::Linear)})
    ->Args({static_cast<int>(smt::Backend::Z3),
            static_cast<int>(smt::MaxSatStrategy::CoreGuided)})
    ->ArgNames({"backend", "strategy"})
    ->Unit(benchmark::kMillisecond);

void BM_MinCostHardening_CaseStudy(benchmark::State& state) {
  const auto strategy = static_cast<smt::MaxSatStrategy>(state.range(0));
  const core::ScadaScenario scenario = core::make_case_study();
  for (auto _ : state) {
    core::Optimizer optimizer(scenario, optimizer_options(smt::Backend::Cdcl, strategy));
    benchmark::DoNotOptimize(optimizer.min_cost_hardening(Property::SecuredObservability,
                                                          ResiliencySpec::per_type(1, 1)));
  }
}
BENCHMARK(BM_MinCostHardening_CaseStudy)
    ->Arg(static_cast<int>(smt::MaxSatStrategy::Linear))
    ->Arg(static_cast<int>(smt::MaxSatStrategy::CoreGuided))
    ->ArgName("strategy")
    ->Unit(benchmark::kMillisecond);

/// BENCH_optimize.json: security-index latency, best of 3 runs.
void write_summary(const char* path) {
  const core::ScadaScenario scenario = core::make_case_study();

  double index_ms = 0.0;
  std::uint64_t index_value = 0;
  for (int rep = 0; rep < 3; ++rep) {
    util::WallTimer timer;
    core::Optimizer optimizer(scenario, {});
    const auto r = optimizer.security_index(Property::SecuredObservability);
    const double ms = timer.millis();
    if (rep == 0 || ms < index_ms) index_ms = ms;
    index_value = r.index;
  }

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_optimize: cannot write %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\"bench\":\"optimize\",\"suite\":\"security-index(case)\","
               "\"security_index_ms\":%.3f,\"security_index\":%llu}\n",
               index_ms, static_cast<unsigned long long>(index_value));
  std::fclose(f);
  std::printf("wrote %s (index %.1f ms)\n", path, index_ms);
}

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  write_summary("BENCH_optimize.json");
  return 0;
}
