// Shared helpers for the SMT test suites: brute-force oracles, a random
// formula generator used by property tests, a sink feeding a CdclSolver, and
// the Fig. 5 grids and threat CNF used by the cost and parity guards.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "scada/core/encoder.hpp"
#include "scada/smt/cdcl.hpp"
#include "scada/smt/cnf.hpp"
#include "scada/smt/formula.hpp"
#include "scada/smt/sink.hpp"
#include "scada/smt/types.hpp"
#include "scada/synth/generator.hpp"
#include "scada/util/rng.hpp"

namespace scada::smt::testing {

/// Adapter feeding CNF producers (encoders, CnfTransformer) straight into a
/// CdclSolver.
class SolverSink final : public ClauseSink {
 public:
  explicit SolverSink(CdclSolver& solver) : solver_(solver) {}
  void add_clause(std::span<const Lit> lits) override { solver_.add_clause(lits); }
  Var fresh_var() override { return solver_.new_var(); }

 private:
  CdclSolver& solver_;
};

/// A bench_fig5_scaling grid (its generator settings, seed buses * 100).
inline core::ScadaScenario fig5_scenario(int buses) {
  synth::SynthConfig config;
  config.buses = buses;
  config.measurement_fraction = 0.75;
  config.hierarchy_level = 2;
  config.secured_hop_fraction = 0.95;
  config.seed = static_cast<std::uint64_t>(buses) * 100;
  return synth::generate_scenario(config);
}

/// The k = 1 threat CNF of a bench_fig5_scaling grid.
inline std::vector<Clause> fig5_threat_cnf(
    int buses, core::Property property = core::Property::Observability) {
  const core::ScadaScenario scenario = fig5_scenario(buses);
  FormulaBuilder builder;
  core::ThreatEncoder encoder(scenario, {}, builder);
  const Formula threat = encoder.threat(property, core::ResiliencySpec::total(1));
  RecordingSink sink;
  CnfTransformer cnf(builder, sink);
  cnf.assert_root(threat);
  return sink.clauses();
}

/// Exhaustively counts satisfying assignments of `f` over all builder
/// variables 1..builder.num_vars(). Only usable for small variable counts.
inline std::uint64_t brute_force_count(const FormulaBuilder& builder, Formula f) {
  const int n = builder.num_vars();
  std::uint64_t count = 0;
  for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    const auto value_of = [&](Var v) { return ((mask >> (v - 1)) & 1) != 0; };
    if (evaluate_formula(builder, f, value_of)) ++count;
  }
  return count;
}

/// True iff `f` has at least one satisfying assignment (brute force).
inline bool brute_force_sat(const FormulaBuilder& builder, Formula f) {
  const int n = builder.num_vars();
  for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    const auto value_of = [&](Var v) { return ((mask >> (v - 1)) & 1) != 0; };
    if (evaluate_formula(builder, f, value_of)) return true;
  }
  return false;
}

/// Generates a random formula over the builder's existing variables.
/// Mixes And/Or/Not and cardinality atoms; `budget` bounds the node count.
inline Formula random_formula(FormulaBuilder& builder, util::Rng& rng, int depth,
                              const std::vector<Formula>& vars) {
  if (depth <= 0 || rng.chance(0.3)) {
    Formula leaf = vars[rng.index(vars.size())];
    return rng.chance(0.4) ? builder.mk_not(leaf) : leaf;
  }
  const auto pick_children = [&](std::size_t lo, std::size_t hi) {
    std::vector<Formula> children;
    const std::size_t n = lo + rng.index(hi - lo + 1);
    children.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      children.push_back(random_formula(builder, rng, depth - 1, vars));
    }
    return children;
  };
  switch (rng.index(5)) {
    case 0: return builder.mk_and(pick_children(2, 4));
    case 1: return builder.mk_or(pick_children(2, 4));
    case 2: return builder.mk_not(random_formula(builder, rng, depth - 1, vars));
    case 3: {
      const auto children = pick_children(2, 5);
      return builder.mk_at_most(children,
                                static_cast<std::uint32_t>(rng.index(children.size() + 1)));
    }
    default: {
      const auto children = pick_children(2, 5);
      return builder.mk_at_least(children,
                                 static_cast<std::uint32_t>(rng.index(children.size() + 1)));
    }
  }
}

}  // namespace scada::smt::testing
