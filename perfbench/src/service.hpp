// The in-process service path: protocol lines for tasks, answers read back
// from JobOutcome, and the traced service leg of the closed-loop workloads.
#pragma once

#include <string>
#include <vector>

#include "reference.hpp"
#include "scada/service/batch_server.hpp"
#include "trace.hpp"

namespace perfbench {

/// One request line (verify / enumerate / security-index; max_resiliency
/// has no service op). CDCL backend named explicitly, certify off.
[[nodiscard]] std::string protocol_line(const Task& task, const std::string& id);

/// The answer a finished job carries, in the library's terms.
[[nodiscard]] Answer answer_from_outcome(const Task& task,
                                         const scada::service::JobOutcome& outcome);

/// Sends each service-capable task twice through a fresh in-process
/// BatchServer with a few requests in flight, timing dispatch_line, the
/// ticket wait and render_outcome. A repeat follows its first send by two
/// lines: it coalesces onto the first job while that is still queued or
/// running and hits the cache once it has finished, so the hit and
/// coalescing counts come from the scheduler. Every answer is checked
/// against `refs`.
[[nodiscard]] ServiceCounts service_leg(const std::vector<Task>& tasks,
                                        const std::vector<Reference>& refs, Gate& gate);

}  // namespace perfbench
