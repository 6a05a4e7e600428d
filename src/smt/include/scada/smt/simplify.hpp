// SatELite-style inprocessing for the CDCL solver (Eén & Biere 2005 lineage,
// no shared code).
//
// One pass, run by CdclSolver::simplify() at decision level 0:
//   1. level-0 cleanup — satisfied clauses removed, permanently false
//      literals stripped,
//   2. subsumption + self-subsuming resolution in one scan per subsumer:
//      the occurrence lists of its least-occurring variable, pre-filtered by
//      64-bit variable signatures,
//   3. bounded variable elimination (BVE) with a resolvent-growth budget;
//      eliminated clauses go onto the solver's witness stack so Sat models
//      can be reconstructed over the original formula,
//   4. failed-literal probing over the binary implication graph.
// Learned-clause vivification (CdclSolver::vivify_learned, also defined in
// simplify.cpp) runs separately at restart boundaries.
//
// Frozen variables — Session model-extraction variables and every assumption
// variable — are never eliminated. Every clause addition (resolvents,
// strengthened clauses, probed units) and every deletion is streamed to the
// attached DRAT writer, so unsat verdicts remain certifiable; BVE parent
// deletions keep the proof tight enough that dropping a resolvent is caught
// by the checker.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "scada/smt/cdcl.hpp"

namespace scada::smt {

/// Inprocessing passes over a CdclSolver. CdclSolver::simplify() constructs
/// one on first use and keeps it, so its buffers keep their capacity across
/// passes; their contents (occurrence lists, signatures) are per pass.
class Simplifier {
 public:
  explicit Simplifier(CdclSolver& solver) : s_(solver) {}

  /// cleanup -> (subsumption/SSR -> BVE) rounds -> watch rebuild -> probing.
  /// Returns false iff the instance became unsat.
  bool run();

 private:
  using ClauseRef = CdclSolver::ClauseRef;
  using LBool = CdclSolver::LBool;

  [[nodiscard]] std::vector<ClauseRef>& occ(Lit l) {
    return occ_[static_cast<std::size_t>(l.code)];
  }
  [[nodiscard]] std::vector<ClauseRef>& locc(Lit l) {
    return locc_[static_cast<std::size_t>(l.code)];
  }

  /// Detaches all watchers, sorts/cleans every clause, builds occurrence
  /// lists and signatures. Returns false iff unsat.
  bool collect();
  /// Subsumption and self-subsuming resolution, one occurrence scan per
  /// subsumer; `changed` is set when any clause was removed or strengthened.
  /// Returns false iff unsat.
  bool subsumption_pass(bool& changed);
  /// Bounded variable elimination, cheapest variables first. Returns false
  /// iff unsat.
  bool bve_pass(bool& changed);
  /// Reattaches watchers for all surviving clauses and propagates units
  /// found during the pass. Returns false iff unsat.
  bool rebuild_and_propagate();
  /// Failed-literal probing over the binary implication graph. Returns false
  /// iff unsat.
  bool probe_pass();

  /// Removes `drop` from clause `dr` (proof: add shortened, delete
  /// original). Returns false iff unsat.
  bool strengthen(ClauseRef dr, Lit drop);
  /// Pushes the clause onto the witness stack, proof-deletes it, and frees
  /// it. Its occurrence entries stay behind as stale refs.
  void retire_parent(ClauseRef cr, Lit witness);
  /// Appends the resolvent of two clauses on `v` to resolvent_lits_/
  /// resolvent_ends_, level-0 false literals stripped. Returns false, and
  /// appends nothing, for tautological or level-0 satisfied resolvents.
  bool add_resolvent(ClauseRef pr, ClauseRef nr, Var v);
  /// Drops removed refs from occ(l) in place, keeping the order of the rest.
  std::vector<ClauseRef>& compact_occ(Lit l);
  /// Marks the variables of `lits` as touched: after the first round, BVE
  /// and subsumption revisit only touched neighborhoods.
  void touch(std::span<const Lit> lits);
  /// Allocates a problem clause and registers it in occ/sig (proof addition
  /// already emitted by the caller or emitted here — see implementation).
  ClauseRef add_problem_clause(std::span<const Lit> lits);
  /// Frees the clause in the arena (its words become GC waste), updates the
  /// problem-clause count, and optionally emits the proof deletion.
  void remove_clause(ClauseRef r, bool emit_delete);
  /// Enqueues a level-0 fact (no-op when already true). Returns false iff it
  /// contradicts the level-0 assignment (instance unsat).
  bool assign_unit(Lit l);

  CdclSolver& s_;
  std::vector<std::vector<ClauseRef>> occ_;   // Lit::code -> problem clauses
  std::vector<std::vector<ClauseRef>> locc_;  // Lit::code -> learned clauses
  std::vector<std::uint64_t> sig_;            // ClauseRef (word offset) -> signature
  std::vector<ClauseRef> problem_;            // active problem clauses
  std::vector<char> touched_;                 // Var -> revisit in the next BVE round
  std::vector<char> stouched_;                // Var -> revisit in the next subsumption round
  bool warm_ = false;  // first pass flags every variable; later passes only changed ones
  // Scratch reused across clauses, rounds and passes, so the pass allocates
  // nothing per clause or per candidate once the buffers have grown.
  std::vector<ClauseRef> live_;               // collect/rebuild: live refs, arena order
  std::vector<std::uint32_t> occ_count_;      // collect: Lit::code -> problem occurrences
  std::vector<Lit> kept_;                     // collect/strengthen: surviving literals
  std::vector<char> active_;                  // subsumption_pass: stouched_ snapshot
  std::vector<std::pair<std::uint32_t, ClauseRef>> by_size_;  // subsumers, smallest first
  std::vector<std::pair<Lit, ClauseRef>> to_strengthen_;      // one subsumer's SSR hits
  std::vector<Var> elim_order_;               // bve_pass: candidates, cheapest first
  std::vector<std::size_t> elim_cost_;        // bve_pass: Var -> live occurrences
  std::vector<Lit> resolvent_lits_;           // bve_pass: resolvents, back to back
  std::vector<std::size_t> resolvent_ends_;   // bve_pass: end offset of each resolvent
};

}  // namespace scada::smt
