// Fig. 7(a): maximum resiliency vs number of measurements (as % of the
// maximum possible) for the 14-bus system. Expected shape: more measurements
// -> higher maximum resiliency; IED tolerance consistently above RTU
// tolerance (one RTU aggregates many IEDs).
//
// Fig. 7(b): threat-space size vs hierarchy level for the 14-bus system,
// under growing resiliency specifications. Expected shape: deeper hierarchy
// and larger specs -> more threat vectors.
#include <cstdio>

#include "bench_common.hpp"
#include "scada/util/table.hpp"

int main() {
  using namespace scada;
  using core::Property;

  core::AnalyzerOptions options;
  options.solver.backend = smt::Backend::Z3;  // the paper's solver (EXPERIMENTS.md Fig. 7)

  {
    util::TextTable table({"measurements (%)", "max IED-only k1", "max RTU-only k2"});
    for (const int percent : {40, 50, 60, 70, 80, 90, 100}) {
      util::RunStats max_ied, max_rtu;
      for (int input = 0; input < bench::kRandomInputs; ++input) {
        synth::SynthConfig config;
        config.buses = 14;
        config.measurement_fraction = percent / 100.0;
        config.hierarchy_level = 1;
        config.seed = static_cast<std::uint64_t>(percent) * 10 + input;
        const core::ScadaScenario scenario = synth::generate_scenario(config);
        core::ScadaAnalyzer analyzer(scenario, options);
        max_ied.add(analyzer.max_resiliency(Property::Observability,
                                            core::FailureClass::IedOnly)
                        .max_k);
        max_rtu.add(analyzer.max_resiliency(Property::Observability,
                                            core::FailureClass::RtuOnly)
                        .max_k);
      }
      table.add_row({std::to_string(percent), util::fmt_double(max_ied.mean(), 2),
                     util::fmt_double(max_rtu.mean(), 2)});
    }
    bench::emit("Fig 7(a): maximum resiliency vs measurement count, 14-bus", table);
  }

  {
    util::TextTable table({"hierarchy level", "threats @(1,1)", "threats @(2,1) [cap 512]"});
    for (int hierarchy = 1; hierarchy <= 4; ++hierarchy) {
      util::RunStats t11, t21;
      for (int input = 0; input < bench::kRandomInputs; ++input) {
        synth::SynthConfig config;
        config.buses = 14;
        config.measurement_fraction = 0.75;
        config.hierarchy_level = hierarchy;
        config.seed = static_cast<std::uint64_t>(hierarchy) * 100 + input;
        const core::ScadaScenario scenario = synth::generate_scenario(config);
        core::ScadaAnalyzer analyzer(scenario, options);
        // The paper's "threat space" counts distinct contingencies, not just
        // the minimal antichain: enumerate exact failure assignments.
        t11.add(static_cast<double>(
            analyzer
                .enumerate_threats(Property::Observability,
                                   core::ResiliencySpec::per_type(1, 1), 512,
                                   /*minimal_only=*/false)
                .size()));
        t21.add(static_cast<double>(
            analyzer
                .enumerate_threats(Property::Observability,
                                   core::ResiliencySpec::per_type(2, 1), 512,
                                   /*minimal_only=*/false)
                .size()));
      }
      table.add_row({std::to_string(hierarchy), util::fmt_double(t11.mean(), 1),
                     util::fmt_double(t21.mean(), 1)});
    }
    bench::emit("Fig 7(b): threat-space size vs hierarchy level, 14-bus", table);
  }
  return 0;
}
