#include "scada/smt/cardinality.hpp"

#include <vector>

#include "scada/util/error.hpp"

namespace scada::smt {
namespace {

/// Appends ~guard (if any) and emits.
class GuardedEmitter {
 public:
  GuardedEmitter(ClauseSink& sink, std::optional<Lit> guard) : sink_(sink), guard_(guard) {}

  void emit(std::initializer_list<Lit> lits) { emit(std::span(lits.begin(), lits.size())); }

  void emit(std::span<const Lit> lits) {
    buf_.assign(lits.begin(), lits.end());
    if (guard_) buf_.push_back(~*guard_);
    sink_.add_clause(buf_);
  }

 private:
  ClauseSink& sink_;
  std::optional<Lit> guard_;
  std::vector<Lit> buf_;
};

/// Sinz 2005 sequential counter for  sum(x) <= k,  2 <= k+1 <= n.
/// Every clause is guarded, so the whole construction is inert when the guard
/// is false (its registers are fresh and unconstrained elsewhere).
void sequential_at_most(ClauseSink& sink, std::span<const Lit> x, std::uint32_t k,
                        std::optional<Lit> guard) {
  const std::size_t n = x.size();
  GuardedEmitter out(sink, guard);

  // s[i][j], 0-based i in [0, n-2], j in [0, k-1]: "at least j+1 of x[0..i] true".
  std::vector<std::vector<Lit>> s(n - 1, std::vector<Lit>(k));
  for (std::size_t i = 0; i + 1 < n; ++i) {
    for (std::uint32_t j = 0; j < k; ++j) {
      s[i][j] = pos(sink.fresh_var());
    }
  }

  out.emit({~x[0], s[0][0]});
  for (std::uint32_t j = 1; j < k; ++j) out.emit({~s[0][j]});
  for (std::size_t i = 1; i + 1 < n; ++i) {
    out.emit({~x[i], s[i][0]});
    out.emit({~s[i - 1][0], s[i][0]});
    for (std::uint32_t j = 1; j < k; ++j) {
      out.emit({~x[i], ~s[i - 1][j - 1], s[i][j]});
      out.emit({~s[i - 1][j], s[i][j]});
    }
    out.emit({~x[i], ~s[i - 1][k - 1]});
  }
  out.emit({~x[n - 1], ~s[n - 2][k - 1]});
}

enum class TotalizerUse { UpperBound, LowerBound };

/// Builds a totalizer counting tree over x[lo, hi) and returns the output
/// unary register O[0..m-1] where O[j] reads "at least j+1 inputs are true".
/// Depending on `use`, emits only the clause direction that the final bound
/// assertion needs:
///   UpperBound (for <= k): inputs force outputs upward  (C1),
///   LowerBound (for >= k): outputs force inputs downward (C2).
std::vector<Lit> totalizer_tree(ClauseSink& sink, std::span<const Lit> x, std::size_t lo,
                                std::size_t hi, TotalizerUse use) {
  if (hi - lo == 1) return {x[lo]};
  const std::size_t mid = lo + (hi - lo) / 2;
  const std::vector<Lit> left = totalizer_tree(sink, x, lo, mid, use);
  const std::vector<Lit> right = totalizer_tree(sink, x, mid, hi, use);
  const std::size_t m1 = left.size();
  const std::size_t m2 = right.size();
  std::vector<Lit> out(m1 + m2);
  for (std::size_t j = 0; j < out.size(); ++j) {
    out[j] = pos(sink.fresh_var());
  }

  if (use == TotalizerUse::UpperBound) {
    // C1: L_a & R_b -> O_{a+b}  (indices are 1-based counts; 0 omitted).
    for (std::size_t a = 0; a <= m1; ++a) {
      for (std::size_t b = 0; b <= m2; ++b) {
        if (a + b == 0) continue;
        std::vector<Lit> clause;
        if (a > 0) clause.push_back(~left[a - 1]);
        if (b > 0) clause.push_back(~right[b - 1]);
        clause.push_back(out[a + b - 1]);
        sink.add_clause(clause);
      }
    }
  } else {
    // C2: O_{a+b+1} -> L_{a+1} | R_{b+1}  (overflow terms omitted).
    for (std::size_t a = 0; a <= m1; ++a) {
      for (std::size_t b = 0; b <= m2; ++b) {
        if (a + b == m1 + m2) continue;
        std::vector<Lit> clause;
        if (a < m1) clause.push_back(left[a]);
        if (b < m2) clause.push_back(right[b]);
        clause.push_back(~out[a + b]);
        sink.add_clause(clause);
      }
    }
  }
  return out;
}

void totalizer_at_most(ClauseSink& sink, std::span<const Lit> x, std::uint32_t k,
                       std::optional<Lit> guard) {
  GuardedEmitter out(sink, guard);
  const std::vector<Lit> count = totalizer_tree(sink, x, 0, x.size(), TotalizerUse::UpperBound);
  out.emit({~count[k]});  // "not (at least k+1)"
}

void totalizer_at_least(ClauseSink& sink, std::span<const Lit> x, std::uint32_t k,
                        std::optional<Lit> guard) {
  GuardedEmitter out(sink, guard);
  const std::vector<Lit> count = totalizer_tree(sink, x, 0, x.size(), TotalizerUse::LowerBound);
  out.emit({count[k - 1]});  // "at least k"
}

}  // namespace

void encode_at_most(ClauseSink& sink, std::span<const Lit> lits, std::uint32_t bound,
                    CardinalityEncoding encoding, std::optional<Lit> guard) {
  const std::size_t n = lits.size();
  GuardedEmitter out(sink, guard);
  if (bound >= n) return;  // trivially true
  if (bound == 0) {
    for (const Lit l : lits) out.emit({~l});
    return;
  }
  switch (encoding) {
    case CardinalityEncoding::SequentialCounter:
      sequential_at_most(sink, lits, bound, guard);
      return;
    case CardinalityEncoding::Totalizer:
      totalizer_at_most(sink, lits, bound, guard);
      return;
  }
  throw SolverError("unknown cardinality encoding");
}

void encode_at_least(ClauseSink& sink, std::span<const Lit> lits, std::uint32_t bound,
                     CardinalityEncoding encoding, std::optional<Lit> guard) {
  const std::size_t n = lits.size();
  GuardedEmitter out(sink, guard);
  if (bound == 0) return;  // trivially true
  if (bound > n) {
    out.emit({});  // unsatisfiable (or forces ~guard)
    return;
  }
  if (bound == n) {
    for (const Lit l : lits) out.emit({l});
    return;
  }
  if (bound == 1) {
    out.emit(lits);
    return;
  }
  switch (encoding) {
    case CardinalityEncoding::SequentialCounter: {
      // sum(x) >= k  <=>  sum(~x) <= n - k.
      std::vector<Lit> negated(lits.size());
      for (std::size_t i = 0; i < lits.size(); ++i) negated[i] = ~lits[i];
      sequential_at_most(sink, negated, static_cast<std::uint32_t>(n) - bound, guard);
      return;
    }
    case CardinalityEncoding::Totalizer:
      totalizer_at_least(sink, lits, bound, guard);
      return;
  }
  throw SolverError("unknown cardinality encoding");
}

}  // namespace scada::smt
