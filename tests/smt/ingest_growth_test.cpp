// Growth guard for CNF ingestion: the bytes the heap hands out while
// CdclSolver::add_clause takes in a CNF must stay within a fixed constant
// per literal fed, at 10k and 200k literals and on the 118-bus Fig. 5 threat
// CNF. An exact-size reserve on any per-literal or per-clause buffer (one
// that defeats geometric growth) copies the whole buffer on every clause and
// breaks the bound by orders of magnitude, long before it shows as time.
//
// The check counts allocations, not time, so it holds on a loaded host. This
// binary replaces the global operator new/delete with counting versions
// (counting_new.hpp), which is why it is its own executable.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "scada/smt/cdcl.hpp"
#include "scada/util/rng.hpp"
#include "counting_new.hpp"
#include "test_helpers.hpp"

namespace scada::smt {
namespace {

// Measured with linear ingestion (x86-64, libstdc++): 101, 79 and 64 bytes
// and 0.50, 0.48 and 0.17 allocations per literal for the 10k, 200k and
// 118-bus inputs. The bounds leave at least 2x headroom over the largest of
// these. They are absolute, not a ratio between sizes: where the last
// doubling of a growing buffer lands alone moves bytes per literal by up to
// 2x. An exact-size reserve of a per-literal buffer on every clause costs
// thousands of bytes per literal at 10k literals already.
constexpr double kMaxBytesPerLiteral = 256.0;
constexpr double kMaxCallsPerLiteral = 1.0;

struct IngestCost {
  std::uint64_t literals = 0;
  std::uint64_t bytes = 0;
  std::uint64_t calls = 0;
  [[nodiscard]] double bytes_per_literal() const {
    return static_cast<double>(bytes) / static_cast<double>(literals);
  }
  [[nodiscard]] double calls_per_literal() const {
    return static_cast<double>(calls) / static_cast<double>(literals);
  }
};

/// Feeds `clauses` into a fresh solver (variables allocated by add_clause
/// itself, as in the Tseitin sink) and counts the heap traffic of the feed.
IngestCost ingest(const std::vector<Clause>& clauses) {
  IngestCost cost;
  for (const Clause& c : clauses) cost.literals += c.size();
  CdclSolver solver;
  g_bytes = 0;
  g_calls = 0;
  bool consistent = true;
  g_counting = true;
  for (const Clause& c : clauses) consistent = solver.add_clause(c) && consistent;
  g_counting = false;
  cost.bytes = g_bytes;
  cost.calls = g_calls;
  EXPECT_TRUE(consistent);
  return cost;
}

/// Random clauses of width 2-6 (Tseitin-like: mostly short) over about one
/// variable per four literals; no units, so ingestion never propagates.
std::vector<Clause> synthetic_cnf(std::size_t target_literals, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto vars = static_cast<std::int64_t>(target_literals / 4);
  std::vector<Clause> clauses;
  std::size_t literals = 0;
  while (literals < target_literals) {
    Clause c(static_cast<std::size_t>(rng.uniform(2, 6)));
    for (Lit& l : c) l = Lit(static_cast<Var>(rng.uniform(1, vars)), rng.chance(0.5));
    literals += c.size();
    clauses.push_back(std::move(c));
  }
  return clauses;
}

void expect_linear(const IngestCost& cost) {
  std::printf("ingested %llu literals: %.1f bytes and %.3f allocations per literal\n",
              static_cast<unsigned long long>(cost.literals), cost.bytes_per_literal(),
              cost.calls_per_literal());
  EXPECT_LE(cost.bytes_per_literal(), kMaxBytesPerLiteral)
      << cost.bytes << " bytes for " << cost.literals << " literals";
  EXPECT_LE(cost.calls_per_literal(), kMaxCallsPerLiteral)
      << cost.calls << " allocations for " << cost.literals << " literals";
}

TEST(IngestGrowth, TenThousandLiteralsStayWithinTheBytesPerLiteralBound) {
  const IngestCost cost = ingest(synthetic_cnf(10'000, 11));
  ASSERT_GE(cost.literals, 10'000U);
  expect_linear(cost);
}

TEST(IngestGrowth, TwoHundredThousandLiteralsStayWithinTheBytesPerLiteralBound) {
  const IngestCost cost = ingest(synthetic_cnf(200'000, 12));
  ASSERT_GE(cost.literals, 200'000U);
  expect_linear(cost);
}

TEST(IngestGrowth, Fig5ThreatCnfAt118BusesStaysWithinTheBytesPerLiteralBound) {
  const IngestCost cost = ingest(testing::fig5_threat_cnf(118));
  ASSERT_GE(cost.literals, 100'000U);  // the full 118-bus CNF, not a fragment
  expect_linear(cost);
}

}  // namespace
}  // namespace scada::smt
