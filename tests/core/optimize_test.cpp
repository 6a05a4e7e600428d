// core::Optimizer tests: the security index must equal the smallest budget
// with a Sat (attackable) verdict from the plain analyzer, minimum-cost
// hardening must beat (or tie) the greedy advisor, and the CEGIS placement
// loop must reach the requested resiliency.
#include "scada/core/optimize.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "scada/core/case_study.hpp"
#include "scada/synth/generator.hpp"
#include "scada/util/error.hpp"

namespace scada::core {
namespace {

/// Smallest k with verify(property, total(k)) Sat — the analyzer-side
/// definition of the security index. nullopt when no budget up to `limit`
/// breaks the property.
std::optional<int> index_by_sweep(const ScadaScenario& scenario, Property property, int limit,
                                  AnalyzerOptions options = {}) {
  ScadaAnalyzer analyzer(scenario, options);
  for (int k = 0; k <= limit; ++k) {
    if (!analyzer.verify(property, ResiliencySpec::total(k)).resilient()) return k;
  }
  return std::nullopt;
}

class OptimizerBothBackends : public ::testing::TestWithParam<smt::Backend> {
 protected:
  [[nodiscard]] OptimizerOptions options(
      smt::MaxSatStrategy strategy = smt::MaxSatStrategy::Linear) const {
    OptimizerOptions o;
    o.analyzer.solver.backend = GetParam();
    o.strategy = strategy;
    return o;
  }
};

TEST_P(OptimizerBothBackends, SecurityIndexMatchesTheAnalyzerSweep) {
  for (const auto topology : {CaseStudyTopology::Fig3, CaseStudyTopology::Fig4}) {
    const ScadaScenario s = make_case_study(topology);
    const int limit = static_cast<int>(s.ied_ids().size() + s.rtu_ids().size());
    for (const auto property : {Property::Observability, Property::SecuredObservability}) {
      const std::optional<int> expected = index_by_sweep(s, property, limit, options().analyzer);
      for (const auto strategy : {smt::MaxSatStrategy::Linear, smt::MaxSatStrategy::CoreGuided}) {
        Optimizer optimizer(s, options(strategy));
        const SecurityIndexResult result = optimizer.security_index(property);
        ASSERT_TRUE(result.completed);
        ASSERT_EQ(result.attackable, expected.has_value());
        if (expected.has_value()) {
          EXPECT_EQ(result.index, static_cast<std::uint64_t>(*expected));
          EXPECT_EQ(result.witness.size(), result.index);
        }
      }
    }
  }
}

TEST_P(OptimizerBothBackends, SecurityIndexScenario2IsTwo) {
  // §IV scenario 2: (1,0) and (0,1) are unsat, (1,1) is sat — the cheapest
  // attack on secured observability needs exactly two devices.
  const ScadaScenario s = make_case_study();
  Optimizer optimizer(s, options());
  const SecurityIndexResult result = optimizer.security_index(Property::SecuredObservability);
  ASSERT_TRUE(result.completed);
  ASSERT_TRUE(result.attackable);
  EXPECT_EQ(result.index, 2u);
}

TEST_P(OptimizerBothBackends, MinCostHardeningBeatsOrTiesTheGreedyAdvisor) {
  const ScadaScenario s = make_case_study();
  const auto spec = ResiliencySpec::per_type(1, 1);

  HardeningAdvisor advisor(s, options().analyzer);
  const HardeningResult greedy = advisor.advise(Property::SecuredObservability, spec);
  ASSERT_TRUE(greedy.achievable);

  Optimizer optimizer(s, options());
  const MinCostResult result = optimizer.min_cost_hardening(Property::SecuredObservability, spec);
  ASSERT_TRUE(result.completed);
  ASSERT_TRUE(result.achievable);
  EXPECT_LE(result.cost, greedy.upgrades.size());
  EXPECT_EQ(result.cost, result.hardening.size());  // unit default costs
  EXPECT_EQ(result.verification.result, smt::SolveResult::Unsat);

  // The winning set actually restores the spec.
  const ScadaScenario fixed = apply_hardening(s, result.hardening);
  ScadaAnalyzer analyzer(fixed, options().analyzer);
  EXPECT_TRUE(analyzer.verify(Property::SecuredObservability, spec).resilient());
}

TEST_P(OptimizerBothBackends, WeightedHardeningPrefersCheapActions) {
  const ScadaScenario s = make_case_study();
  const auto spec = ResiliencySpec::per_type(1, 1);
  // Make hop (1,9) prohibitively expensive; any optimum that can avoid it
  // must. (If it cannot, the expensive action shows up in the cost.)
  const auto cost = [](const HardeningAction& action) -> std::uint64_t {
    return action.a == 1 && action.b == 9 ? 100 : 1;
  };
  Optimizer optimizer(s, options());
  const MinCostResult cheap = optimizer.min_cost_hardening(Property::SecuredObservability, spec);
  const MinCostResult weighted =
      optimizer.min_cost_hardening(Property::SecuredObservability, spec, cost);
  ASSERT_TRUE(cheap.completed && weighted.completed);
  ASSERT_TRUE(cheap.achievable && weighted.achievable);
  // Same pool, same spec: the weighted optimum never uses MORE actions than
  // necessary, and its cost is consistent with its action set.
  std::uint64_t recomputed = 0;
  for (const HardeningAction& action : weighted.hardening) recomputed += cost(action);
  EXPECT_EQ(weighted.cost, recomputed);
}

TEST_P(OptimizerBothBackends, MinCostHardeningZeroWhenAlreadyResilient) {
  const ScadaScenario s = make_case_study();
  Optimizer optimizer(s, options());
  const MinCostResult result =
      optimizer.min_cost_hardening(Property::SecuredObservability, ResiliencySpec::per_type(0, 1));
  ASSERT_TRUE(result.completed);
  ASSERT_TRUE(result.achievable);
  EXPECT_EQ(result.cost, 0u);
  EXPECT_TRUE(result.hardening.empty());
}

TEST_P(OptimizerBothBackends, MinCostHardeningImpossibleSpec) {
  const ScadaScenario s = make_case_study();
  Optimizer optimizer(s, options());
  // Failing all 4 RTUs severs every path; no crypto upgrade can help.
  const MinCostResult result =
      optimizer.min_cost_hardening(Property::SecuredObservability, ResiliencySpec::per_type(0, 4));
  ASSERT_TRUE(result.completed);
  EXPECT_FALSE(result.achievable);
}

TEST_P(OptimizerBothBackends, PlainObservabilityHardeningRejected) {
  const ScadaScenario s = make_case_study();
  Optimizer optimizer(s, options());
  EXPECT_THROW(
      (void)optimizer.min_cost_hardening(Property::Observability, ResiliencySpec::per_type(1, 1)),
      ConfigError);
}

TEST_P(OptimizerBothBackends, MinCostPlacementReachesTheSpec) {
  synth::SynthConfig config;
  config.buses = 14;
  config.measurement_fraction = 0.55;
  config.secured_hop_fraction = 1.0;
  config.seed = 2;
  const ScadaScenario s = synth::generate_scenario(config);
  const powersys::BusSystem grid = powersys::BusSystem::ieee14();
  const auto spec = ResiliencySpec::total(1);
  ASSERT_FALSE(
      ScadaAnalyzer(s, options().analyzer).verify(Property::Observability, spec).resilient());

  Optimizer optimizer(s, options());
  const MinCostResult result = optimizer.min_cost_placement(grid, Property::Observability, spec);
  ASSERT_TRUE(result.completed);
  ASSERT_TRUE(result.achievable);
  EXPECT_EQ(result.cost, result.placements.size());
  EXPECT_FALSE(result.placements.empty());
  EXPECT_EQ(result.verification.result, smt::SolveResult::Unsat);

  PlacementAdvisor advisor(grid, s, options().analyzer);
  const ScadaScenario fixed = advisor.apply(result.placements);
  EXPECT_TRUE(
      ScadaAnalyzer(fixed, options().analyzer).verify(Property::Observability, spec).resilient());
  // Never worse than the greedy advisor.
  const PlacementResult greedy = advisor.advise(Property::Observability, spec, 10);
  ASSERT_TRUE(greedy.achievable);
  EXPECT_LE(result.placements.size(), greedy.additions.size());
}

INSTANTIATE_TEST_SUITE_P(Backends, OptimizerBothBackends,
                         ::testing::Values(smt::Backend::Cdcl, smt::Backend::Z3),
                         [](const ::testing::TestParamInfo<smt::Backend>& info) {
                           return std::string(smt::to_string(info.param));
                         });

TEST(OptimizerTest, CertifiedSecurityIndexOnCdcl) {
  const ScadaScenario s = make_case_study();
  OptimizerOptions options;
  options.analyzer.solver.backend = smt::Backend::Cdcl;
  options.analyzer.certify = true;
  options.analyzer.solver.certify = true;
  Optimizer optimizer(s, options);
  const SecurityIndexResult result = optimizer.security_index(Property::SecuredObservability);
  ASSERT_TRUE(result.completed);
  ASSERT_TRUE(result.attackable);
  EXPECT_EQ(result.index, 2u);
  EXPECT_TRUE(result.certified) << result.maxsat.detail;
}

TEST(OptimizerTest, CertifiedHardeningVerification) {
  const ScadaScenario s = make_case_study();
  OptimizerOptions options;
  options.analyzer.solver.backend = smt::Backend::Cdcl;
  options.analyzer.certify = true;
  options.analyzer.solver.certify = true;
  Optimizer optimizer(s, options);
  const MinCostResult result =
      optimizer.min_cost_hardening(Property::SecuredObservability, ResiliencySpec::per_type(1, 1));
  ASSERT_TRUE(result.completed);
  ASSERT_TRUE(result.achievable);
  EXPECT_TRUE(result.verification.certified);
}

TEST(OptimizerTest, PresetInterruptDegradesGracefully) {
  const ScadaScenario s = make_case_study();
  std::atomic<bool> interrupt{true};
  OptimizerOptions options;
  options.analyzer.solver.backend = smt::Backend::Cdcl;
  options.analyzer.interrupt = &interrupt;
  Optimizer optimizer(s, options);

  const SecurityIndexResult index = optimizer.security_index(Property::SecuredObservability);
  EXPECT_FALSE(index.completed);

  const MinCostResult hardening =
      optimizer.min_cost_hardening(Property::SecuredObservability, ResiliencySpec::per_type(1, 1));
  EXPECT_FALSE(hardening.completed);
  EXPECT_FALSE(hardening.achievable);

  const MaxResiliencyResult resiliency = ScadaAnalyzer(s, options.analyzer)
                                             .max_resiliency(Property::Observability,
                                                             FailureClass::Combined);
  EXPECT_FALSE(resiliency.completed);
}

}  // namespace
}  // namespace scada::core
