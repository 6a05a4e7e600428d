// Randomized property test for the cardinality encoders at sizes beyond the
// exhaustive sweep in tests/smt/cardinality_test.cpp (which stops at n=6):
// for random (n, k) with n up to 12, enumerate ALL 2^n assignments of the
// input literals and assert that the sequential-counter and totalizer
// encodings each accept exactly the assignments with popcount within the
// bound — and therefore agree with each other on every assignment.
#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "scada/smt/cardinality.hpp"
#include "scada/smt/cdcl.hpp"
#include "scada/util/rng.hpp"
#include "smt/test_helpers.hpp"

namespace scada::smt {
namespace {

using testing::SolverSink;

/// One encoder instance under test: a solver holding the encoded constraint
/// over input literals xs[0..n).
struct Encoded {
  CdclSolver solver;
  std::vector<Lit> xs;

  Encoded(int n, std::uint32_t k, bool at_most, CardinalityEncoding encoding) {
    SolverSink sink(solver);
    for (int i = 0; i < n; ++i) xs.push_back(pos(solver.new_var()));
    if (at_most) {
      encode_at_most(sink, xs, k, encoding);
    } else {
      encode_at_least(sink, xs, k, encoding);
    }
  }

  SolveResult query(std::uint64_t mask) {
    std::vector<Lit> assumptions;
    assumptions.reserve(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      assumptions.push_back(((mask >> i) & 1) != 0 ? xs[i] : ~xs[i]);
    }
    return solver.solve(assumptions);
  }
};

TEST(CardinalityPropertyTest, EncodingsMatchPopcountSemanticsAndEachOther) {
  util::Rng rng(0xCA4D1BA1ULL);
  // 10 random shapes; together with the at_most/at_least split this sweeps
  // roughly 10 * 2^n assignments * 2 encodings * 2 kinds of solve calls.
  for (int round = 0; round < 10; ++round) {
    const int n = static_cast<int>(rng.uniform(7, 12));
    // Bias k into the interesting band but allow the degenerate edges
    // (k = 0 and k > n) some of the time.
    const auto k = static_cast<std::uint32_t>(rng.uniform(0, n + 1));
    const bool at_most = rng.chance(0.5);
    SCOPED_TRACE(::testing::Message() << "round=" << round << " n=" << n << " k=" << k
                                      << (at_most ? " at_most" : " at_least"));

    Encoded seq(n, k, at_most, CardinalityEncoding::SequentialCounter);
    Encoded tot(n, k, at_most, CardinalityEncoding::Totalizer);

    for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
      const int popcount = std::popcount(mask);
      const bool expected = at_most ? popcount <= static_cast<int>(k)
                                    : popcount >= static_cast<int>(k);
      const SolveResult want = expected ? SolveResult::Sat : SolveResult::Unsat;
      const SolveResult got_seq = seq.query(mask);
      const SolveResult got_tot = tot.query(mask);
      ASSERT_EQ(got_seq, want) << "sequential counter, mask=" << mask;
      ASSERT_EQ(got_tot, want) << "totalizer, mask=" << mask;
      ASSERT_EQ(got_seq, got_tot) << "encodings diverge, mask=" << mask;
    }
  }
}

}  // namespace
}  // namespace scada::smt
