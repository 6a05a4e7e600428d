// fig5-verify: one-shot ScadaAnalyzer::verify on fresh analyzers over
// synthetic grids at the paper's four sizes (Fig. 5 settings: measurement
// fraction 0.75, hierarchy 2, secured-hop fraction 0.95). Each grid is
// verified at its resiliency boundary k* (unsat) and at k*+1 (sat).
//
// A round holds 4 grids of 14 buses, 16 of 30, 3 of 57 and 1 of 118 (two
// requests each). The mix puts p50 mid-way through the 30-bus requests and
// p90 near the middle of the 57-bus ones, away from the size boundaries
// where a percentile would jump between sizes from one seed to the next,
// and away from the heavy upper tail of the 57-bus times, which depends on
// the grids a seed draws. The single 118-bus pair lies above p90 but carries
// most of the round's time.
#include <array>
#include <cstdio>

#include "workloads.hpp"

namespace perfbench {
namespace {

using scada::core::Property;
using scada::smt::SolveResult;

struct Slot {
  int buses;
  int count;
};

scada::synth::SynthConfig fig5_config(int buses, std::uint64_t seed) {
  scada::synth::SynthConfig config;
  config.buses = buses;
  config.measurement_fraction = 0.75;
  config.hierarchy_level = 2;
  config.secured_hop_fraction = 0.95;
  config.seed = seed;
  return config;
}

}  // namespace

ClosedLoopPlan plan_fig5_verify(const Args& args) {
  const std::vector<Slot> slots = args.smoke
                                      ? std::vector<Slot>{{14, 2}, {30, 1}, {57, 1}}
                                      : std::vector<Slot>{{14, 4}, {30, 16}, {57, 3}, {118, 1}};
  const int pool_rounds = args.smoke ? 1 : 10;

  std::mt19937_64 seeds_rng = rng_for(args.seed, 1);
  std::vector<scada::synth::SynthConfig> configs;
  for (int r = 0; r < pool_rounds; ++r) {
    for (const Slot& slot : slots) {
      for (int j = 0; j < slot.count; ++j) {
        configs.push_back(fig5_config(slot.buses, draw_seed(seeds_rng)));
      }
    }
  }

  // The timed set-up: every grid of the pool, then one warm-up verify.
  const auto set_up = [configs] {
    std::vector<std::shared_ptr<const scada::core::ScadaScenario>> grids;
    for (const auto& config : configs) {
      grids.push_back(
          std::make_shared<scada::core::ScadaScenario>(scada::synth::generate_scenario(config)));
    }
    scada::core::ScadaAnalyzer warm(*grids.front(), cdcl_options());
    (void)warm.verify(Property::Observability, scada::core::ResiliencySpec::total(0));
    return grids;
  };
  ClosedLoopPlan plan;
  const Clock::time_point start = Clock::now();
  std::vector<std::shared_ptr<const scada::core::ScadaScenario>> grids = set_up();
  plan.setup_s.push_back(ms_since(start) / 1e3);
  plan.time_setup = [set_up] {
    const Clock::time_point again = Clock::now();
    const auto discarded = set_up();
    return ms_since(again) / 1e3;
  };

  // References: each grid's boundary k* on Z3 for one property (alternating
  // through the pool). A grid without a boundary (the property already
  // fails nominally) is replaced by a fresh draw of the same size.
  constexpr int kCap = 8;
  std::vector<int> k_star(grids.size());
  parallel_for(grids.size(), [&](std::size_t g) {
    const Property property = g % 2 == 0 ? Property::Observability
                                         : Property::SecuredObservability;
    std::mt19937_64 redraw_rng = rng_for(args.seed, 1000 + g);
    k_star[g] = z3_boundary(*grids[g], property, kCap);
    while (k_star[g] < 0) {
      configs[g].seed = draw_seed(redraw_rng);
      grids[g] = std::make_shared<scada::core::ScadaScenario>(
          scada::synth::generate_scenario(configs[g]));
      k_star[g] = z3_boundary(*grids[g], property, kCap);
    }
  });
  const std::size_t per_round = configs.size() / static_cast<std::size_t>(pool_rounds);
  std::vector<std::optional<SolveResult>> known;
  for (std::size_t g = 0; g < grids.size(); ++g) {
    if (g % per_round == 0) plan.rounds.emplace_back();
    for (const int k : {k_star[g], k_star[g] + 1}) {
      Task task;
      task.op = Op::Verify;
      task.scenario = grids[g];
      task.property = g % 2 == 0 ? Property::Observability : Property::SecuredObservability;
      task.k = k;
      task.buses = configs[g].buses;
      task.label = std::to_string(configs[g].buses) + "-bus";
      task.cls = task.label + (k == k_star[g] ? " unsat" : " sat");
      task.synth = configs[g];
      known.push_back(k_star[g] < kCap ? std::optional(k == k_star[g] ? SolveResult::Unsat
                                                                      : SolveResult::Sat)
                                       : std::nullopt);
      plan.rounds.back().push_back(plan.tasks.size());
      plan.tasks.push_back(std::move(task));
    }
  }
  plan.refs.resize(plan.tasks.size());
  parallel_for(plan.tasks.size(), [&](std::size_t i) {
    plan.refs[i] = compute_reference(plan.tasks[i], known[i]);
  });
  return plan;
}

}  // namespace perfbench
