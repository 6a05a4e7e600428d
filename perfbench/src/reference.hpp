// Requests, their untraced library execution, and the independent
// references every answer is checked against.
//
// References are computed before the timed loop: the Z3 backend answers
// every request, and the brute-force verifier answers again wherever its
// k-subset count is small. Sat answers are re-checked directly: the threat
// vector must violate the property (BruteForceVerifier::violates) and fit
// the budget (within_budget).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "scada/core/analyzer.hpp"
#include "scada/core/optimize.hpp"
#include "scada/synth/generator.hpp"

namespace perfbench {

enum class Op { Verify, Enumerate, MaxResiliency, SecurityIndex };

[[nodiscard]] const char* op_name(Op op) noexcept;

/// One request of a workload: an operation on a scenario.
struct Task {
  Op op = Op::Verify;
  std::shared_ptr<const scada::core::ScadaScenario> scenario;
  scada::core::Property property = scada::core::Property::Observability;
  /// Combined failure budget (verify/enumerate).
  int k = 0;
  /// Bus count of the grid (0 for the case study); selects brute force.
  int buses = 0;
  /// Row label of the traced per-layer breakdown ("118-bus", "enumerate").
  std::string label;
  /// Request class: the label refined by what sets its cost ("118-bus
  /// unsat", "enumerate 30-bus"); throughput is built from class medians.
  std::string cls;
  /// Synth configuration the scenario came from (absent: case study).
  std::optional<scada::synth::SynthConfig> synth;
  /// Case-study topology name for the service protocol.
  std::string builtin = "case_study_fig3";

  [[nodiscard]] scada::core::ResiliencySpec spec() const {
    return scada::core::ResiliencySpec::total(k);
  }
};

/// What the program under test answered.
struct Answer {
  scada::smt::SolveResult verdict = scada::smt::SolveResult::Unknown;
  std::optional<scada::core::ThreatVector> threat;
  std::vector<scada::core::ThreatVector> threats;
  int max_k = -2;
  bool attackable = false;
  std::uint64_t index = 0;
  scada::core::ThreatVector witness;
  /// Inprocessing passes the CDCL solver ran (verify and traced replays).
  std::uint64_t simplify_rounds = 0;
  /// Traced replay only: solve() calls that ran a pass of their own.
  std::uint64_t unplanned_simplify = 0;
};

/// The independent answer.
struct Reference {
  scada::smt::SolveResult verdict = scada::smt::SolveResult::Unknown;
  std::size_t threat_count = 0;
  int max_k = -2;
  bool attackable = false;
  std::uint64_t index = 0;
  /// Brute-force answers where the k-subset count fits.
  bool has_brute = false;
  scada::smt::SolveResult brute_verdict = scada::smt::SolveResult::Unknown;
  std::vector<scada::core::ThreatVector> brute_threats;
  int brute_max_k = -2;
};

/// Library options every request runs with: CDCL backend, certify off,
/// everything else at library defaults.
[[nodiscard]] scada::core::AnalyzerOptions cdcl_options();

/// Runs the task through the public library API, untraced.
[[nodiscard]] Answer run_untraced(const Task& task);

/// Z3 (+ brute force where small) answer of the task. A verify task whose
/// Z3 verdict is already known (from a boundary search) passes it in.
[[nodiscard]] Reference compute_reference(
    const Task& task, std::optional<scada::smt::SolveResult> z3_verdict = std::nullopt);

/// Largest k whose combined-budget verify is unsat on Z3 (-1 if k = 0 is
/// already sat, `cap` if every k up to cap is unsat).
[[nodiscard]] int z3_boundary(const scada::core::ScadaScenario& scenario,
                              scada::core::Property property, int cap = 8);

/// Compares an answer with its reference and re-checks sat witnesses.
/// Returns an empty string on success, else what disagreed.
[[nodiscard]] std::string check_answer(const Task& task, const Reference& ref,
                                       const Answer& answer);

/// Canonical order for threat-vector sets (enumeration order may differ).
void sort_threats(std::vector<scada::core::ThreatVector>& threats);

}  // namespace perfbench
