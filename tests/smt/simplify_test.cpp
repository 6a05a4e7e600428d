// Inprocessing engine tests: subsumption and self-subsuming resolution (and
// the one merge that decides both), bounded variable elimination with model
// reconstruction, failed-literal probing, the freeze API that keeps
// assumption/extraction variables alive, and the interaction of
// simplification with incremental solving and certification.
#include "scada/smt/simplify.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "scada/smt/cdcl.hpp"
#include "scada/smt/dimacs.hpp"
#include "scada/smt/drat.hpp"
#include "scada/smt/session.hpp"
#include "scada/util/rng.hpp"

namespace scada::smt {
namespace {

Lit L(int signed_var) {
  return signed_var > 0 ? pos(signed_var) : neg(-signed_var);
}

std::vector<Lit> C(std::initializer_list<int> signed_vars) {
  std::vector<Lit> out;
  for (const int sv : signed_vars) out.push_back(L(sv));
  return out;
}

bool model_satisfies(const CdclSolver& s, const std::vector<std::vector<Lit>>& clauses) {
  for (const auto& clause : clauses) {
    bool sat = false;
    for (const Lit l : clause) {
      if (s.model_value(l.var()) != l.negated()) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

TEST(SimplifyTest, SubsumptionRemovesWeakerClauses) {
  CdclSolver s;
  s.add_clause(C({1, 2}));
  s.add_clause(C({1, 2, 3}));  // subsumed by (1 2)
  s.add_clause(C({-1, 4}));
  s.add_clause(C({-2, -4}));
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_GE(s.stats().clauses_subsumed, 1u);
}

TEST(SimplifyTest, SelfSubsumingResolutionStrengthens) {
  CdclSolver s;
  // (1 2) strengthens (-1 2 3) to (2 3): resolving on 1 self-subsumes.
  s.add_clause(C({1, 2}));
  s.add_clause(C({-1, 2, 3}));
  s.add_clause(C({-2, 4}));
  s.add_clause(C({-3, -4}));
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_GE(s.stats().clauses_strengthened, 1u);
}

/// Loads `clauses` with every variable frozen, so BVE stays out and only
/// subsumption (and probing) can act, and records the pass's proof steps.
struct FrozenPass {
  explicit FrozenPass(const std::vector<std::vector<Lit>>& clauses) {
    solver.set_proof(&recorder);
    for (const auto& clause : clauses) {
      for (const Lit l : clause) solver.freeze(l.var());
      solver.add_clause(clause);
    }
  }
  [[nodiscard]] const std::vector<DratStep>& steps() const { return recorder.proof().steps; }
  DratProofRecorder recorder;
  CdclSolver solver;
};

TEST(SimplifyTest, StrengthensThroughTheNegatedOccurrencesOfThePivot) {
  // Var 1 is the least-occurring variable of (1 2), so the scan for (1 2)
  // walks occ(1) and occ(-1); (-1 2 3) sits in occ(-1) and loses -1.
  const std::vector<std::vector<Lit>> clauses = {C({1, 2}), C({-1, 2, 3}), C({2, 4}),
                                                 C({-2, 5})};
  FrozenPass pass(clauses);
  ASSERT_TRUE(pass.solver.simplify());
  EXPECT_EQ(pass.solver.stats().clauses_strengthened, 1u);
  EXPECT_EQ(pass.solver.stats().clauses_subsumed, 0u);
  const std::vector<DratStep> expected = {{false, C({2, 3})}, {true, C({-1, 2, 3})}};
  EXPECT_EQ(pass.steps(), expected);
  ASSERT_EQ(pass.solver.solve(), SolveResult::Sat);
  EXPECT_TRUE(model_satisfies(pass.solver, clauses));
}

TEST(SimplifyTest, TwoNegatedLiteralsLeaveTheClauseUntouched) {
  // (1 2) and (-1 -2 3) clash on two variables: their resolvent on either
  // one is a tautology, so neither clause may be strengthened.
  FrozenPass pass({C({1, 2}), C({-1, -2, 3})});
  ASSERT_TRUE(pass.solver.simplify());
  EXPECT_EQ(pass.solver.stats().clauses_strengthened, 0u);
  EXPECT_EQ(pass.solver.stats().clauses_subsumed, 0u);
  EXPECT_TRUE(pass.steps().empty());
}

TEST(SimplifyTest, SignatureCollisionIsRejectedByTheMerge) {
  // Variables 1, 65, 129 and 193 share one signature bit, so (1 65) passes
  // the signature filter against (1 3 129) and (-1 5 193). Only the merge
  // sees that 65 is missing from both: a filter-only check would delete the
  // first and strengthen the second. The (65 x) clauses make var 1 the
  // pivot of (1 65), so the scan does visit both candidates.
  const std::vector<std::vector<Lit>> clauses = {
      C({1, 65}), C({1, 3, 129}), C({-1, 5, 193}), C({65, 7}), C({65, 8}), C({65, 9})};
  FrozenPass pass(clauses);
  ASSERT_TRUE(pass.solver.simplify());
  EXPECT_EQ(pass.solver.stats().clauses_strengthened, 0u);
  EXPECT_EQ(pass.solver.stats().clauses_subsumed, 0u);
  EXPECT_TRUE(pass.steps().empty());
  ASSERT_EQ(pass.solver.solve(), SolveResult::Sat);
  EXPECT_TRUE(model_satisfies(pass.solver, clauses));
}

TEST(SimplifyTest, ShorterClauseIsNeverRewrittenByALongerOne) {
  // (1 2) subsumes (1 2 3); the longer clause must not touch the shorter
  // one in return, whichever of them the scan meets first.
  FrozenPass pass({C({1, 2, 3}), C({1, 2})});
  ASSERT_TRUE(pass.solver.simplify());
  EXPECT_EQ(pass.solver.stats().clauses_subsumed, 1u);
  EXPECT_EQ(pass.solver.stats().clauses_strengthened, 0u);
  const std::vector<DratStep> expected = {{true, C({1, 2, 3})}};
  EXPECT_EQ(pass.steps(), expected);
}

TEST(SimplifyTest, CertifiedRefutationThroughStrengthenedClauses) {
  // (1 2)/(-1 2) strengthen to the unit (2) and (-2 3)/(-2 -3) to (-2): the
  // pass refutes the instance by itself. Unit propagation on the input finds
  // no conflict, so the proof stands only on the strengthened clauses.
  DimacsInstance instance;
  instance.num_vars = 3;
  instance.clauses = {C({1, 2}), C({-1, 2}), C({-2, 3}), C({-2, -3})};
  FrozenPass pass(instance.clauses);
  EXPECT_FALSE(pass.solver.simplify());
  EXPECT_GE(pass.solver.stats().clauses_strengthened, 2u);
  EXPECT_EQ(pass.solver.stats().conflicts, 0u);  // no search ran
  DratProof proof = pass.recorder.proof();
  ASSERT_TRUE(proof.derives_empty());
  const DratCheckResult check = check_drat(instance, proof);
  EXPECT_TRUE(check.ok) << check.error;

  // Drop the first strengthened clause: the rest no longer refutes.
  const auto first_add = std::find_if(proof.steps.begin(), proof.steps.end(),
                                      [](const DratStep& step) { return !step.is_delete; });
  ASSERT_NE(first_add, proof.steps.end());
  ASSERT_EQ(first_add->clause.size(), 1u);
  proof.steps.erase(first_add);
  EXPECT_FALSE(check_drat(instance, proof).ok);
}

TEST(SimplifyTest, BveEliminatesDefinitionAndReconstructsModel) {
  // Var 4 is a Tseitin-style definition 4 <-> (1 | 2); BVE resolves it away.
  // The reported model must still satisfy the ORIGINAL clauses, which is
  // exactly what the witness-stack reconstruction guarantees.
  const std::vector<std::vector<Lit>> original = {
      C({-4, 1, 2}), C({4, -1}), C({4, -2}), C({4, 3}), C({-3, 1}),
  };
  CdclSolver s;
  for (const auto& clause : original) s.add_clause(clause);
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_GE(s.stats().vars_eliminated, 1u);
  EXPECT_TRUE(model_satisfies(s, original));
}

TEST(SimplifyTest, FrozenVariablesSurviveElimination) {
  CdclSolver s;
  s.add_clause(C({3, 1}));
  s.add_clause(C({-3, 2}));
  s.ensure_var(3);
  s.freeze(3);
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_TRUE(s.is_frozen(3));
  EXPECT_FALSE(s.is_eliminated(3));
  // The frozen variable keeps a meaningful model value across solves.
  const bool v3 = s.model_value(3);
  EXPECT_TRUE(v3 || s.model_value(1));
  EXPECT_TRUE(!v3 || s.model_value(2));
}

TEST(SimplifyTest, AssumptionOnEliminatedVariableIsRestored) {
  // Regression for the latent trap: the first (assumption-free) solve may
  // eliminate var 3; a later solve that ASSUMES 3 must transparently restore
  // it and honor the assumption in both polarities.
  CdclSolver s;
  s.add_clause(C({-3, 1}));
  s.add_clause(C({3, 2}));
  ASSERT_EQ(s.solve(), SolveResult::Sat);

  ASSERT_EQ(s.solve(std::vector<Lit>{L(3)}), SolveResult::Sat);
  EXPECT_TRUE(s.model_value(3));
  EXPECT_TRUE(s.model_value(1));

  ASSERT_EQ(s.solve(std::vector<Lit>{L(-3)}), SolveResult::Sat);
  EXPECT_FALSE(s.model_value(3));
  EXPECT_TRUE(s.model_value(2));
  EXPECT_FALSE(s.is_eliminated(3));
}

TEST(SimplifyTest, AddClauseRestoresEliminatedVariables) {
  const std::vector<std::vector<Lit>> original = {C({3, 1}), C({-3, 2})};
  CdclSolver s;
  for (const auto& clause : original) s.add_clause(clause);
  ASSERT_EQ(s.solve(), SolveResult::Sat);

  // Incremental additions over possibly-eliminated variables reactivate them
  // (and their defining clauses) before the new constraint lands.
  s.add_clause(C({-3}));
  s.add_clause(C({-2}));
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_FALSE(s.model_value(3));
  EXPECT_FALSE(s.model_value(2));
  EXPECT_TRUE(s.model_value(1));
  EXPECT_TRUE(model_satisfies(s, original));
}

TEST(SimplifyTest, FailedLiteralProbingFindsForcedUnits) {
  CdclSolver s;
  // 1 -> 2 -> 3 but 1 -> !3: probing literal 1 hits a conflict, so the
  // simplifier learns the unit (-1). Freezing every variable rules BVE out;
  // only the probe can make progress.
  s.add_clause(C({-1, 2}));
  s.add_clause(C({-2, 3}));
  s.add_clause(C({-1, -3}));
  for (Var v = 1; v <= 3; ++v) s.freeze(v);
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_GE(s.stats().failed_literals, 1u);
  EXPECT_FALSE(s.model_value(1));
}

TEST(SimplifyTest, OnAndOffAgreeOnRandomInstances) {
  util::Rng rng(0x51397);
  int sats = 0;
  int unsats = 0;
  for (int round = 0; round < 60; ++round) {
    const int nv = 5 + static_cast<int>(rng.index(8));
    const int nc = nv + static_cast<int>(rng.index(3 * nv));
    std::vector<std::vector<Lit>> clauses;
    for (int i = 0; i < nc; ++i) {
      std::vector<Lit> clause;
      const int width = 1 + static_cast<int>(rng.index(3));
      for (int j = 0; j < width; ++j) {
        const int v = 1 + static_cast<int>(rng.index(nv));
        clause.push_back(rng.chance(0.5) ? L(v) : L(-v));
      }
      clauses.push_back(std::move(clause));
    }

    CdclConfig on;
    CdclConfig off;
    off.simplify = false;
    CdclSolver simplified(on);
    CdclSolver plain(off);
    for (const auto& clause : clauses) {
      simplified.add_clause(clause);
      plain.add_clause(clause);
    }
    const SolveResult a = simplified.solve();
    const SolveResult b = plain.solve();
    ASSERT_EQ(a, b) << "round " << round;
    if (a == SolveResult::Sat) {
      ++sats;
      EXPECT_TRUE(model_satisfies(simplified, clauses)) << "round " << round;
    } else {
      ++unsats;
    }
  }
  EXPECT_GT(sats, 0);
  EXPECT_GT(unsats, 0);
}

TEST(SimplifyTest, SessionExtractionVariablesStayQueryable) {
  // Every builder-mapped variable is frozen by the session before solving, so
  // value() works for all of them even when the Tseitin auxiliaries around
  // them were eliminated.
  FormulaBuilder fb;
  std::vector<Formula> xs;
  for (int i = 0; i < 6; ++i) xs.push_back(fb.mk_var("x" + std::to_string(i)));
  SessionOptions options;
  options.backend = Backend::Cdcl;
  Session session(fb, options);
  session.assert_formula(fb.mk_and({fb.mk_at_least(xs, 2), fb.mk_at_most(xs, 4)}));
  session.assert_formula(fb.mk_or({fb.mk_and({xs[0], xs[1]}), fb.mk_and({xs[2], xs[3]})}));
  ASSERT_EQ(session.solve(), SolveResult::Sat);
  int count = 0;
  for (const Formula x : xs) count += session.value(x) ? 1 : 0;
  EXPECT_GE(count, 2);
  EXPECT_LE(count, 4);
}

TEST(SimplifyTest, CertifiedUnsatWithSimplifyOn) {
  // certify + simplify compose: the proof contains the simplifier's resolvent
  // additions and deletions and the independent checker must accept it.
  FormulaBuilder fb;
  std::vector<Formula> xs;
  for (int i = 0; i < 6; ++i) xs.push_back(fb.mk_var("x" + std::to_string(i)));
  SessionOptions options;
  options.backend = Backend::Cdcl;
  options.certify = true;
  options.simplify = true;
  Session session(fb, options);
  session.assert_formula(fb.mk_at_least(xs, 4));
  session.assert_formula(fb.mk_at_most(xs, 2));
  ASSERT_EQ(session.solve(), SolveResult::Unsat);
  const CertificateResult cert = session.certify_last_result();
  ASSERT_TRUE(cert.available) << cert.detail;
  EXPECT_TRUE(cert.valid) << cert.detail;
}

TEST(SimplifyTest, SimplifyOffDisablesAllInprocessing) {
  CdclConfig config;
  config.simplify = false;
  CdclSolver s(config);
  s.add_clause(C({1, 2}));
  s.add_clause(C({1, 2, 3}));
  s.add_clause(C({-4, 1, 2}));
  s.add_clause(C({4, -1}));
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_EQ(s.stats().vars_eliminated, 0u);
  EXPECT_EQ(s.stats().clauses_subsumed, 0u);
  EXPECT_EQ(s.stats().simplify_rounds, 0u);
}

}  // namespace
}  // namespace scada::smt
