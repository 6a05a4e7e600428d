// The three workloads. The closed-loop ones (fig5-verify, threat-space)
// build a plan — a pool of tasks with references, grouped into rounds — and
// share one driver; fleet-replay runs its own open-loop generator.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "common.hpp"
#include "reference.hpp"

namespace perfbench {

struct ClosedLoopPlan {
  std::vector<Task> tasks;
  /// Independent answers: filled up front, or after the timed loop by
  /// `reference` for the tasks the loop actually ran.
  std::vector<std::optional<Reference>> refs;
  std::function<Reference(const Task&)> reference;
  /// Task indices of each round; the loop cycles through the rounds.
  std::vector<std::vector<std::size_t>> rounds;
  /// Runs and times the set-up again (the same generation and warm-up as
  /// the first, its output discarded); returns seconds. The loop calls it
  /// between rounds, so the set-ups spread over the run like the requests.
  std::function<double()> time_setup;
  /// Duration of each timed set-up (generation + warm-up), in seconds.
  std::vector<double> setup_s;
};

[[nodiscard]] ClosedLoopPlan plan_fig5_verify(const Args& args);
[[nodiscard]] ClosedLoopPlan plan_threat_space(const Args& args);

/// One client, closed loop: each request starts when the previous one ends.
/// Untraced: end-to-end metrics. Traced: every request is run untraced and
/// then replayed under spans; per-layer metrics.
[[nodiscard]] RunResult run_closed_loop(const Args& args, ClosedLoopPlan plan);

/// Open loop at each rate of the ladder through the in-process service.
[[nodiscard]] RunResult run_fleet_replay(const Args& args);

}  // namespace perfbench
