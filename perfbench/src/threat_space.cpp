// threat-space: incremental sessions. Each request runs one of
// ScadaAnalyzer::enumerate_threats (minimal only, k = 2),
// ScadaAnalyzer::max_resiliency or Optimizer::security_index on a fresh
// analyzer, for both properties, over the §IV case study and 14- and 30-bus
// grids at hierarchy 1-4 (Fig. 6/7 settings, measurement fraction 0.85).
//
// A round visits every stratum (case study, 14/30 buses x hierarchy 1-4)
// once with all three operations and both properties, each round on fresh
// grids, so a run sees a few hundred distinct systems. The references of
// the rounds actually run are computed after the timed loop.
#include <map>
#include <mutex>

#include "scada/core/case_study.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using scada::core::Property;

struct Stratum {
  int buses;  ///< 0 = case study
  int hierarchy;
};

}  // namespace

ClosedLoopPlan plan_threat_space(const Args& args) {
  std::vector<Stratum> strata = {{0, 0}};
  for (const int buses : {14, 30}) {
    for (int h = 1; h <= 4; ++h) {
      if (!args.smoke || h == 1) strata.push_back({buses, h});
    }
  }
  // More rounds than a run gets through; the loop wraps if it ever does.
  const int rounds = args.smoke ? 2 : 64;

  std::mt19937_64 seeds_rng = rng_for(args.seed, 3);
  std::vector<std::optional<scada::synth::SynthConfig>> configs;  // round x stratum
  for (int r = 0; r < rounds; ++r) {
    for (const Stratum& s : strata) {
      if (s.buses == 0) {
        configs.emplace_back();
        continue;
      }
      scada::synth::SynthConfig config;
      config.buses = s.buses;
      config.hierarchy_level = s.hierarchy;
      config.measurement_fraction = 0.85;
      config.seed = draw_seed(seeds_rng);
      configs.emplace_back(config);
    }
  }

  // The timed set-up: the case study and every grid of the pool, then one
  // warm-up enumeration.
  const auto set_up = [configs] {
    std::vector<std::shared_ptr<const scada::core::ScadaScenario>> grids;
    const auto case_study =
        std::make_shared<scada::core::ScadaScenario>(scada::core::make_case_study());
    for (const auto& config : configs) {
      grids.push_back(config.has_value() ? std::make_shared<scada::core::ScadaScenario>(
                                               scada::synth::generate_scenario(*config))
                                         : case_study);
    }
    scada::core::ScadaAnalyzer warm(*case_study, cdcl_options());
    (void)warm.enumerate_threats(Property::Observability, scada::core::ResiliencySpec::total(2));
    return grids;
  };
  ClosedLoopPlan plan;
  const Clock::time_point start = Clock::now();
  const std::vector<std::shared_ptr<const scada::core::ScadaScenario>> grids = set_up();
  plan.setup_s.push_back(ms_since(start) / 1e3);
  plan.time_setup = [set_up] {
    const Clock::time_point again = Clock::now();
    const auto discarded = set_up();
    return ms_since(again) / 1e3;
  };

  for (std::size_t c = 0; c < configs.size(); ++c) {
    if (c % strata.size() == 0) plan.rounds.emplace_back();
    const Stratum& stratum = strata[c % strata.size()];
    for (const Property property : {Property::Observability, Property::SecuredObservability}) {
      for (const Op op : {Op::Enumerate, Op::MaxResiliency, Op::SecurityIndex}) {
        Task task;
        task.op = op;
        task.scenario = grids[c];
        task.property = property;
        task.k = op == Op::Enumerate ? 2 : 0;
        task.buses = stratum.buses;
        task.label = op_name(op);
        task.cls = task.label + " " +
                   (stratum.buses == 0 ? std::string("case-study")
                                       : std::to_string(stratum.buses) + "-bus");
        task.synth = configs[c];
        plan.rounds.back().push_back(plan.tasks.size());
        plan.tasks.push_back(std::move(task));
      }
    }
  }

  // max_resiliency and security_index share one boundary reference.
  // Called from several threads; a race only computes a reference twice.
  struct Memo {
    std::mutex mutex;
    std::map<std::pair<const void*, int>, Reference> bounds;
  };
  auto memo = std::make_shared<Memo>();
  plan.reference = [memo](const Task& task) {
    if (task.op == Op::Enumerate) return compute_reference(task);
    const auto key = std::make_pair(static_cast<const void*>(task.scenario.get()),
                                    static_cast<int>(task.property));
    {
      const std::lock_guard<std::mutex> lock(memo->mutex);
      const auto it = memo->bounds.find(key);
      if (it != memo->bounds.end()) return it->second;
    }
    Reference ref = compute_reference(task);
    const std::lock_guard<std::mutex> lock(memo->mutex);
    return memo->bounds.emplace(key, std::move(ref)).first->second;
  };
  return plan;
}

}  // namespace perfbench
