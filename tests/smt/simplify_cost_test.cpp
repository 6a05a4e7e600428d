// Cost guard for inprocessing on the 30/57/118-bus Fig. 5 threat CNFs:
//   * the first CdclSolver::simplify() pass stays within a fixed number of
//     heap allocations and of occurrence-list entries scanned by subsumption
//     per input clause — a subsumption scan per literal of every subsumer,
//     instead of one per subsumer, multiplies the second figure;
//   * a second, warm pass allocates next to nothing: the Simplifier keeps
//     its buffers, so a scratch vector allocated per clause or per candidate
//     shows up there at full weight, where the first pass's occurrence-list
//     growth would hide it.
//
// The checks count work, not time, so they hold on a loaded host. This
// binary replaces the global operator new/delete with counting versions
// (counting_new.hpp), which is why it is its own executable.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "scada/smt/cdcl.hpp"
#include "counting_new.hpp"
#include "test_helpers.hpp"

namespace scada::smt {
namespace {

// Measured (x86-64, libstdc++) at 30/57/118 buses: the first pass makes
// 2.33/2.28/2.46 allocations and 18.2/19.3/19.4 subsumption inspections per
// input clause; the warm pass 0.010/0.010/0.002 allocations. The bounds leave
// at least 2x headroom over the largest of these. Before the one-scan
// subsumption and the reused scratch, the same passes measured 9.3/8.9/9.3
// allocations, about 114 inspections per clause at 118 buses, and
// 1.9/2.0/0.8 warm-pass allocations per clause.
constexpr double kMaxFirstPassAllocationsPerClause = 5.0;
constexpr double kMaxInspectionsPerClause = 40.0;
constexpr double kMaxWarmPassAllocationsPerClause = 0.05;

std::uint64_t count_allocations(CdclSolver& solver) {
  g_calls = 0;
  g_counting = true;
  (void)solver.simplify();
  g_counting = false;
  return g_calls;
}

double per_clause(std::uint64_t n, const std::vector<Clause>& clauses) {
  return static_cast<double>(n) / static_cast<double>(clauses.size());
}

/// A fresh solver holding `clauses` (the feed is not counted).
void load(CdclSolver& solver, const std::vector<Clause>& clauses) {
  bool consistent = true;
  for (const Clause& c : clauses) consistent = solver.add_clause(c) && consistent;
  ASSERT_TRUE(consistent);
}

void expect_first_pass_bounded(int buses) {
  const std::vector<Clause> clauses = testing::fig5_threat_cnf(buses);
  CdclSolver solver;
  load(solver, clauses);
  const double allocations = per_clause(count_allocations(solver), clauses);
  const double inspections = per_clause(solver.stats().subsumption_inspections, clauses);
  std::printf("%d buses, %zu clauses, first pass: %.2f allocations and %.1f subsumption "
              "inspections per clause\n",
              buses, clauses.size(), allocations, inspections);
  EXPECT_GT(solver.stats().vars_eliminated, 0U);  // the pass did its work
  EXPECT_LE(allocations, kMaxFirstPassAllocationsPerClause);
  EXPECT_LE(inspections, kMaxInspectionsPerClause);
}

void expect_warm_pass_bounded(int buses) {
  // Secured observability: the observability CNF at 57 buses is refuted by
  // the first pass itself, which leaves no second pass to measure.
  const std::vector<Clause> clauses =
      testing::fig5_threat_cnf(buses, core::Property::SecuredObservability);
  CdclSolver solver;
  load(solver, clauses);
  ASSERT_TRUE(solver.simplify());
  const double allocations = per_clause(count_allocations(solver), clauses);
  std::printf("%d buses, %zu clauses, warm pass: %.4f allocations per clause\n", buses,
              clauses.size(), allocations);
  EXPECT_EQ(solver.stats().simplify_rounds, 2U);
  EXPECT_LE(allocations, kMaxWarmPassAllocationsPerClause);
}

TEST(SimplifyCost, FirstPassAt30Buses) { expect_first_pass_bounded(30); }
TEST(SimplifyCost, FirstPassAt57Buses) { expect_first_pass_bounded(57); }
TEST(SimplifyCost, FirstPassAt118Buses) { expect_first_pass_bounded(118); }
TEST(SimplifyCost, WarmPassAt30Buses) { expect_warm_pass_bounded(30); }
TEST(SimplifyCost, WarmPassAt57Buses) { expect_warm_pass_bounded(57); }
TEST(SimplifyCost, WarmPassAt118Buses) { expect_warm_pass_bounded(118); }

}  // namespace
}  // namespace scada::smt
