#include "service.hpp"

#include <cstdio>
#include <deque>

namespace perfbench {

using scada::service::BatchServer;
using scada::service::JobStatus;

std::string protocol_line(const Task& task, const std::string& id) {
  std::string scenario;
  if (task.synth.has_value()) {
    const scada::synth::SynthConfig& c = *task.synth;
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "{\"synth\":{\"buses\":%d,\"seed\":%llu,\"hierarchy\":%d,"
                  "\"measurement_fraction\":%.17g,\"rtus_per_bus\":%.17g,"
                  "\"secured_hop_fraction\":%.17g}}",
                  c.buses, static_cast<unsigned long long>(c.seed), c.hierarchy_level,
                  c.measurement_fraction, c.rtus_per_bus, c.secured_hop_fraction);
    scenario = buf;
  } else {
    scenario = "{\"builtin\":\"" + task.builtin + "\"}";
  }
  const char* op = task.op == Op::Enumerate       ? "enumerate"
                   : task.op == Op::SecurityIndex ? "security-index"
                                                  : "verify";
  return "{\"id\":\"" + id + "\",\"op\":\"" + op + "\",\"scenario\":" + scenario +
         ",\"property\":\"" + property_key(task.property) + "\",\"spec\":{\"k\":" +
         std::to_string(task.k) +
         ",\"r\":1},\"backend\":\"cdcl\",\"certify\":false,\"max_vectors\":1024,"
         "\"minimal_only\":true}";
}

Answer answer_from_outcome(const Task& task, const scada::service::JobOutcome& outcome) {
  Answer out;
  if (outcome.status != JobStatus::Done) return out;  // verdict stays Unknown
  const scada::service::CachedAnalysis& a = outcome.analysis;
  switch (task.op) {
    case Op::Verify:
      out.verdict = a.verdict.result;
      out.threat = a.verdict.threat;
      break;
    case Op::Enumerate:
      out.verdict = scada::smt::SolveResult::Sat;
      out.threats = a.threats;
      break;
    case Op::SecurityIndex:
      out.verdict = a.security_index.completed ? scada::smt::SolveResult::Sat
                                               : scada::smt::SolveResult::Unknown;
      out.attackable = a.security_index.attackable;
      out.index = a.security_index.index;
      out.witness = a.security_index.witness;
      break;
    case Op::MaxResiliency:
      break;
  }
  return out;
}

ServiceCounts service_leg(const std::vector<Task>& tasks, const std::vector<Reference>& refs,
                          Gate& gate) {
  // The repeat of a line is sent this many lines after it, with up to
  // kWindow requests in flight on the two scheduler threads.
  constexpr std::size_t kLag = 2;
  constexpr std::size_t kWindow = 4;
  struct InFlight {
    std::size_t task;
    BatchServer::Dispatch dispatch;
  };
  ServiceCounts counts;
  scada::service::ServerOptions options;
  options.scheduler.threads = 2;
  BatchServer server(options);

  std::vector<std::size_t> lines;  // task indices, each service-capable task twice
  std::vector<std::size_t> firsts;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i].op == Op::MaxResiliency) continue;
    firsts.push_back(i);
    lines.push_back(i);
    if (firsts.size() > kLag) lines.push_back(firsts[firsts.size() - 1 - kLag]);
  }
  for (std::size_t j = firsts.size() > kLag ? firsts.size() - kLag : 0; j < firsts.size(); ++j) {
    lines.push_back(firsts[j]);
  }

  std::deque<InFlight> in_flight;
  const auto finish = [&] {
    InFlight job = std::move(in_flight.front());
    in_flight.pop_front();
    const Task& task = tasks[job.task];
    scada::service::JobOutcome outcome = job.dispatch.submitted.ticket.outcome.get();
    outcome.coalesced = job.dispatch.submitted.ticket.coalesced;
    const Clock::time_point ready = Clock::now();
    const std::string response = server.render_outcome(job.dispatch.submitted, outcome);
    counts.render_us.push_back(ms_since(ready) * 1e3);
    // A coalesced request shares the first job's outcome and timings.
    if (outcome.cache_hit) {
      counts.queue_ms_hit.push_back(outcome.queue_ms);
    } else if (!outcome.coalesced) {
      counts.queue_ms_cold.push_back(outcome.queue_ms);
      counts.run_ms.push_back(outcome.run_ms);
    }
    counts.hits += outcome.cache_hit ? 1 : 0;
    counts.coalesced += outcome.coalesced ? 1 : 0;
    ++counts.responses;
    const std::string why =
        response.find("\"ok\":true") == std::string::npos
            ? "error response"
            : check_answer(task, refs[job.task], answer_from_outcome(task, outcome));
    gate.check(why.empty(), "service " + task.label + ": " + why);
  };
  for (std::size_t n = 0; n < lines.size(); ++n) {
    const std::size_t i = lines[n];
    const std::string line = protocol_line(tasks[i], "leg" + std::to_string(n));
    if (in_flight.size() == kWindow) finish();
    const Clock::time_point start = Clock::now();
    BatchServer::Dispatch dispatch = server.dispatch_line(line);
    counts.dispatch_us.push_back(ms_since(start) * 1e3);
    if (dispatch.kind != BatchServer::Dispatch::Kind::Job) {
      gate.fail("service rejected " + line + ": " + dispatch.response);
      continue;
    }
    in_flight.push_back({i, std::move(dispatch)});
  }
  while (!in_flight.empty()) finish();
  return counts;
}

}  // namespace perfbench
