// fleet-replay: open loop through the in-process service. One generator
// thread sends protocol lines at each offered rate of a fixed ladder through
// BatchServer::dispatch_line → JobScheduler (2 threads) → render_outcome.
// About 70% of requests repeat a warm working set (cache hits); the rest are
// cold verify/enumerate requests on unseen small grids (case study, 14 and
// 30 buses). Latency runs from each request's due time to its rendered
// response, so a stalled generator or a growing queue shows.
//
// Cold requests cycle through a pool of distinct keys whose references are
// computed up front. The verdict cache holds the working set plus a few
// dozen entries, so a pool key is long evicted when it comes round again.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>

#include "scada/core/case_study.hpp"
#include "service.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using scada::core::Property;
using scada::service::BatchServer;

constexpr double kHitShare = 0.7;
/// Set-up is timed this many times before the ladder; setup_s is the median.
constexpr int kSetupRuns = 5;
/// Offered rates (requests/s), ascending, spaced around the knee of a
/// 4-core host.
constexpr std::array<double, 8> kLadder = {100, 300, 400, 475, 550, 625, 700, 800};
/// The ladder step whose latency is the reported p50/p90.
constexpr std::size_t kRefStep = 0;
/// The p90 a sustained step must meet: about 3.5x a cold 30-bus verify.
constexpr double kP90LimitMs = 50.0;
constexpr std::size_t kSchedulerThreads = 2;

struct Sent {
  std::size_t task = 0;
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point dispatched;
  BatchServer::Dispatch dispatch;
};

struct Done {
  Sent sent;
  Clock::time_point ready;
  Clock::time_point rendered;
  std::string response;
};

struct StepReport {
  double rate = 0.0;
  std::size_t requests = 0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  std::size_t windows = 0;
  std::size_t hits = 0;
  double hit_p50_ms = 0.0;
  double cold_p50_ms = 0.0;
  double lateness_max_ms = 0.0;
  std::size_t backlog_max = 0;
  bool backlog_growing = false;
  double throughput = 0.0;  ///< responses/s from the first due time to the last response
  [[nodiscard]] bool sustained(double limit_ms) const {
    return p90_ms <= limit_ms && !backlog_growing;
  }
};

/// Sleeps until shortly before `due`, then yields until it: the generator's
/// own wake-up delay would otherwise be charged to every request.
void wait_until(Clock::time_point due) {
  const Clock::time_point coarse = due - std::chrono::microseconds(200);
  if (Clock::now() < coarse) std::this_thread::sleep_until(coarse);
  while (Clock::now() < due) std::this_thread::yield();
}

/// When the service had the response: the job's completion on the
/// scheduler's clock (submit + queue + run, submit being the end of
/// dispatch_line) plus the time render_outcome took. The collector's own
/// polling delay is not the service's and is left out.
Clock::time_point response_time(const Done& d) {
  const scada::service::JobOutcome& outcome = d.sent.dispatch.submitted.ticket.outcome.get();
  const auto ms = std::chrono::duration<double, std::milli>(outcome.queue_ms + outcome.run_ms);
  return d.sent.dispatched + std::chrono::duration_cast<Clock::duration>(ms) +
         (d.rendered - d.ready);
}

Task small_task(std::mt19937_64& rng, int buses, Op op) {
  Task task;
  task.op = op;
  task.buses = buses;
  task.label = op_name(op);
  task.property = rng() % 2 == 0 ? Property::Observability : Property::SecuredObservability;
  task.k = op == Op::Enumerate ? 2 : 1 + static_cast<int>(rng() % 2);
  if (buses == 0) {
    task.builtin = "case_study_fig3";
    return task;
  }
  scada::synth::SynthConfig config;
  config.buses = buses;
  config.hierarchy_level = 1 + static_cast<int>(rng() % 4);
  config.measurement_fraction = 0.8;
  config.seed = draw_seed(rng);
  task.synth = config;
  return task;
}

/// Warm set: distinct small-grid requests, repeated throughout the run.
/// Cold pool: fresh grids, two thirds of 30 buses and one third of 14, with
/// the ten case-study keys spread through it so each recurs only once per
/// pool cycle. With ~30% of requests cold, p90 is about the 67th percentile
/// of the cold latencies, which this mix puts mid-way through the 30-bus
/// solves rather than on the 14/30-bus boundary.
std::vector<Task> make_tasks(std::uint64_t seed, std::size_t warm, std::size_t cold) {
  std::mt19937_64 rng = rng_for(seed, 5);
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < warm; ++i) {
    tasks.push_back(small_task(rng, i % 3 == 0 ? 30 : 14, i % 2 == 0 ? Op::Verify : Op::Enumerate));
  }
  std::vector<Task> case_keys;
  for (const Property property : {Property::Observability, Property::SecuredObservability}) {
    for (int k = 0; k <= 2; ++k) {
      Task task = small_task(rng, 0, Op::Verify);
      task.property = property;
      task.k = k;
      case_keys.push_back(task);
    }
    for (int k = 1; k <= 2; ++k) {
      Task task = small_task(rng, 0, Op::Enumerate);
      task.property = property;
      task.k = k;
      case_keys.push_back(task);
    }
  }
  const std::size_t spacing = std::max<std::size_t>(cold / case_keys.size(), 1);
  std::size_t next_case = 0;
  for (std::size_t i = 0; i < cold; ++i) {
    if (i % spacing == spacing - 1 && next_case < case_keys.size()) {
      tasks.push_back(case_keys[next_case++]);
      continue;
    }
    tasks.push_back(small_task(rng, i % 3 == 0 ? 14 : 30, i % 2 == 0 ? Op::Verify : Op::Enumerate));
  }
  return tasks;
}

std::unique_ptr<BatchServer> make_server(std::size_t cache_capacity) {
  scada::service::ServerOptions options;
  options.scheduler.threads = kSchedulerThreads;
  options.scheduler.cache_capacity = cache_capacity;
  return std::make_unique<BatchServer>(options);
}

/// Runs one ladder step: sends for `duration_s`, then drains.
StepReport run_step(BatchServer& server, const std::vector<Task>& tasks,
                    const std::vector<std::string>& lines, std::size_t warm, double rate,
                    double duration_s, std::mt19937_64& rng, std::size_t& cold_next,
                    std::vector<Done>& done_out) {
  std::mutex mutex;
  std::deque<Sent> inbox;
  std::atomic<bool> sending{true};
  std::atomic<std::size_t> completed{0};
  std::vector<Done> done;

  std::thread collector([&] {
    std::vector<Sent> pending;
    for (;;) {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        while (!inbox.empty()) {
          pending.push_back(std::move(inbox.front()));
          inbox.pop_front();
        }
      }
      bool progressed = false;
      for (std::size_t i = 0; i < pending.size();) {
        const bool job = pending[i].dispatch.kind == BatchServer::Dispatch::Kind::Job;
        auto& future = pending[i].dispatch.submitted.ticket.outcome;
        if (job && future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          ++i;
          continue;
        }
        Done d;
        d.ready = Clock::now();
        if (job) {
          scada::service::JobOutcome outcome = future.get();
          outcome.coalesced = pending[i].dispatch.submitted.ticket.coalesced;
          d.response = server.render_outcome(pending[i].dispatch.submitted, outcome);
        } else {
          d.response = pending[i].dispatch.response;
        }
        d.rendered = Clock::now();
        d.sent = std::move(pending[i]);
        done.push_back(std::move(d));
        if (i + 1 != pending.size()) pending[i] = std::move(pending.back());
        pending.pop_back();
        completed.fetch_add(1);
        progressed = true;
      }
      if (!sending.load() && pending.empty()) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (inbox.empty()) break;
      }
      if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });

  StepReport report;
  report.rate = rate;
  const auto count = static_cast<std::size_t>(std::llround(rate * duration_s));
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  const auto interval = std::chrono::duration<double>(1.0 / rate);
  std::vector<std::size_t> backlog(count, 0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (std::size_t i = 0; i < count; ++i) {
    Sent s;
    s.due = start + std::chrono::duration_cast<Clock::duration>(interval * static_cast<double>(i));
    if (coin(rng) >= kHitShare) {
      s.task = warm + cold_next;
      cold_next = (cold_next + 1) % (tasks.size() - warm);
    } else {
      s.task = static_cast<std::size_t>(rng() % warm);
    }
    wait_until(s.due);
    s.sent = Clock::now();
    s.dispatch = server.dispatch_line(lines[s.task]);
    s.dispatched = Clock::now();
    report.lateness_max_ms = std::max(report.lateness_max_ms, ms_between(s.due, s.sent));
    backlog[i] = i - completed.load();
    report.backlog_max = std::max(report.backlog_max, backlog[i]);
    const std::lock_guard<std::mutex> lock(mutex);
    inbox.push_back(std::move(s));
  }
  sending.store(false);
  collector.join();

  // A backlog that keeps rising through the step is not sustained, even
  // when the short step ends before p90 crosses the limit.
  const std::size_t quarter = std::max<std::size_t>(count / 4, 1);
  double first = 0.0;
  double last = 0.0;
  for (std::size_t i = 0; i < quarter && i < count; ++i) {
    first += static_cast<double>(backlog[i]);
    last += static_cast<double>(backlog[count - 1 - i]);
  }
  first /= static_cast<double>(quarter);
  last /= static_cast<double>(quarter);
  // Growing: the last quarter holds at least twice the first quarter's
  // backlog, and the rise exceeds 25 ms worth of arrivals.
  report.backlog_growing = last > 2.0 * first && last - first > std::max(4.0, rate * 0.025);

  // Percentiles per window of at least 200 requests (a second or more),
  // then the median across windows: one window disturbed by another
  // process on the host does not move the step's figures.
  const std::size_t per_window =
      std::max<std::size_t>(200, static_cast<std::size_t>(std::llround(rate)));
  std::vector<std::vector<double>> windows((count + per_window - 1) / per_window);
  std::vector<double> hit_latencies;
  std::vector<double> cold_latencies;
  Clock::time_point last_done = start;
  for (const Done& d : done) {
    const bool ok = d.sent.dispatch.kind == BatchServer::Dispatch::Kind::Job &&
                    d.response.find("\"ok\":true") != std::string::npos;
    // A failed request counts as missing the latency limit.
    const double ms = ok ? ms_between(d.sent.due, response_time(d)) : 1e9;
    const auto index = static_cast<std::size_t>(ms_between(start, d.sent.due) / 1e3 * rate + 0.5);
    windows[std::min(index / per_window, windows.size() - 1)].push_back(ms);
    const bool hit = ok && d.sent.dispatch.submitted.ticket.outcome.get().cache_hit;
    (hit ? hit_latencies : cold_latencies).push_back(ms);
    last_done = std::max(last_done, ok ? response_time(d) : d.rendered);
  }
  if (windows.size() > 1 && windows.back().size() < per_window / 2) {
    // A short tail window joins its neighbour.
    windows[windows.size() - 2].insert(windows[windows.size() - 2].end(), windows.back().begin(),
                                       windows.back().end());
    windows.pop_back();
  }
  std::vector<double> p50s;
  std::vector<double> p90s;
  for (const std::vector<double>& w : windows) {
    p50s.push_back(percentile(w, 0.5));
    p90s.push_back(percentile(w, 0.9));
  }
  report.windows = windows.size();
  report.requests = done.size();
  report.p50_ms = median(p50s);
  report.p90_ms = median(p90s);
  report.hits = hit_latencies.size();
  report.hit_p50_ms = median(hit_latencies);
  report.cold_p50_ms = median(cold_latencies);
  report.throughput = static_cast<double>(done.size()) / (ms_between(start, last_done) / 1e3);
  for (Done& d : done) done_out.push_back(std::move(d));
  return report;
}

/// Highest sustained rate, interpolated on log(p90) between the last step
/// that met the limit and the first that did not.
double sustained_rate(const std::vector<StepReport>& steps, double limit_ms) {
  double below_rate = 0.0;
  double below_p90 = 0.0;
  for (const StepReport& s : steps) {
    if (s.sustained(limit_ms)) {
      below_rate = s.rate;
      below_p90 = s.p90_ms;
      continue;
    }
    if (below_rate == 0.0 || s.p90_ms <= limit_ms) return below_rate;
    const double frac = (std::log(limit_ms) - std::log(below_p90)) /
                        (std::log(s.p90_ms) - std::log(below_p90));
    return below_rate + std::clamp(frac, 0.0, 1.0) * (s.rate - below_rate);
  }
  return below_rate;
}

}  // namespace

RunResult run_fleet_replay(const Args& args) {
  RunResult result;
  const std::size_t warm = args.smoke ? 8 : 48;
  const std::size_t cold = args.smoke ? 24 : 480;
  std::vector<Task> tasks = make_tasks(args.seed, warm, cold);
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    lines.push_back(protocol_line(tasks[i], "f" + std::to_string(i)));
  }
  // Room for the working set and a few dozen cold entries, far fewer than
  // the cold pool, so cold keys are evicted before they recur.
  const std::size_t cache_capacity = warm * 3;

  // Set-up (timed, kSetupRuns times): a fresh server whose cache is warmed with
  // the working set.
  std::unique_ptr<BatchServer> server;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRuns; ++rep) {
    const Clock::time_point start = Clock::now();
    server = make_server(cache_capacity);
    std::vector<BatchServer::Dispatch> warming;
    for (std::size_t i = 0; i < warm; ++i) warming.push_back(server->dispatch_line(lines[i]));
    for (auto& d : warming) {
      if (d.kind == BatchServer::Dispatch::Kind::Job) d.submitted.ticket.outcome.wait();
    }
    setup_s.push_back(ms_since(start) / 1e3);
  }

  // References (untimed) for every task the generator may send.
  std::shared_ptr<const scada::core::ScadaScenario> case_study =
      std::make_shared<scada::core::ScadaScenario>(scada::core::make_case_study());
  for (Task& task : tasks) {
    task.scenario = task.synth.has_value()
                        ? std::make_shared<scada::core::ScadaScenario>(
                              scada::synth::generate_scenario(*task.synth))
                        : case_study;
  }
  std::vector<Reference> refs(tasks.size());
  parallel_for(tasks.size(), [&](std::size_t i) { refs[i] = compute_reference(tasks[i]); });

  reset_peak_rss();
  std::mt19937_64 rng = rng_for(args.seed, 6);
  std::size_t cold_next = 0;
  std::vector<StepReport> steps;
  std::vector<Done> done;
  // The reference step, whose latency is reported, runs twice as long as
  // the others.
  const double step_s = args.seconds / static_cast<double>(kLadder.size() + 1);
  for (std::size_t i = 0; i < kLadder.size(); ++i) {
    const double rate = kLadder[i];
    const double duration_s = i == kRefStep ? 2 * step_s : step_s;
    steps.push_back(
        run_step(*server, tasks, lines, warm, rate, duration_s, rng, cold_next, done));
    const StepReport& s = steps.back();
    std::printf("step %6.1f rps: n=%zu in %zu windows, p50=%.3f ms p90=%.3f ms (hits %zu "
                "p50=%.3f ms, misses p50=%.3f ms) throughput=%.1f/s lateness_max=%.3f ms "
                "backlog_max=%zu%s -> %s\n",
                s.rate, s.requests, s.windows, s.p50_ms, s.p90_ms, s.hits, s.hit_p50_ms,
                s.cold_p50_ms, s.throughput, s.lateness_max_ms, s.backlog_max,
                s.backlog_growing ? " (growing)" : "",
                s.sustained(kP90LimitMs) ? "sustained" : "not sustained");
    if (!s.sustained(kP90LimitMs)) break;
  }
  const double rss_mb = peak_rss_mb();

  std::vector<std::string> verdicts(done.size());
  parallel_for(done.size(), [&](std::size_t j) {
    const Done& d = done[j];
    if (d.sent.dispatch.kind != BatchServer::Dispatch::Kind::Job ||
        d.response.find("\"ok\":true") == std::string::npos) {
      verdicts[j] = "error response " + d.response;
      return;
    }
    const Task& task = tasks[d.sent.task];
    verdicts[j] = check_answer(task, refs[d.sent.task],
                               answer_from_outcome(task, d.sent.dispatch.submitted.ticket.outcome.get()));
  });
  ServiceCounts service;
  Tracer service_spans;
  for (std::size_t j = 0; j < done.size(); ++j) {
    const Done& d = done[j];
    result.gate.check(verdicts[j].empty(), "fleet " + tasks[d.sent.task].label + ": " + verdicts[j]);
    if (d.sent.dispatch.kind != BatchServer::Dispatch::Kind::Job) continue;
    const scada::service::JobOutcome& outcome = d.sent.dispatch.submitted.ticket.outcome.get();
    service.dispatch_us.push_back(ms_between(d.sent.sent, d.sent.dispatched) * 1e3);
    service.render_us.push_back(ms_between(d.ready, d.rendered) * 1e3);
    const bool coalesced = d.sent.dispatch.submitted.ticket.coalesced;
    // A coalesced request shares the first job's outcome and timings.
    if (outcome.cache_hit) {
      service.queue_ms_hit.push_back(outcome.queue_ms);
    } else if (!coalesced) {
      service.queue_ms_cold.push_back(outcome.queue_ms);
      service.run_ms.push_back(outcome.run_ms);
    }
    service.hits += outcome.cache_hit ? 1 : 0;
    service.coalesced += coalesced ? 1 : 0;
    ++service.responses;
    service_spans.add_request(outcome.cache_hit ? "service-hit" : "service-cold", d.sent.due,
                              d.rendered,
                              {{"loadgen.lateness", d.sent.due, d.sent.sent},
                               {"service.dispatch", d.sent.sent, d.sent.dispatched},
                               {"service.wait", d.sent.dispatched, d.ready},
                               {"service.render", d.ready, d.rendered}});
  }

  const std::size_t ref_index = std::min(kRefStep, steps.size() - 1);
  const StepReport& ref_step = steps[ref_index];
  double lateness = 0.0;
  std::size_t backlog = 0;
  for (const StepReport& s : steps) {
    lateness = std::max(lateness, s.lateness_max_ms);
    backlog = std::max(backlog, s.backlog_max);
  }
  const double sustained = sustained_rate(steps, kP90LimitMs);
  std::printf("reference step %.1f rps%s; sustained %.1f rps (p90 limit %.0f ms)\n",
              ref_step.rate, ref_index == kRefStep ? "" : " (ladder stopped early)",
              sustained, kP90LimitMs);
  print_setup(setup_s);
  std::printf("memory: %.1f MB peak RSS over the ladder\n", rss_mb);
  std::printf("loadgen: lateness_max=%.3f ms backlog_max=%zu; cache hit rate %.3f over %llu "
              "responses\n",
              lateness, backlog,
              service.responses == 0 ? 0.0
                                     : static_cast<double>(service.hits) /
                                           static_cast<double>(service.responses),
              static_cast<unsigned long long>(service.responses));

  if (!args.trace) {
    result.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"latency_p50_ms", ref_step.p50_ms, "ms"},
        {"latency_p90_ms", ref_step.p90_ms, "ms"},
        {"verdicts_per_s", ref_step.throughput, "1/s"},
        {"sustained_rps", sustained, "1/s"},
    };
    return result;
  }

  // Traced: the cold requests again, untraced then replayed through the
  // layers, for about the run length.
  Tracer tracer;
  LayerCounts counts;
  double untraced_ms = 0.0;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = warm; i < tasks.size() && ms_since(start) < args.seconds * 1e3; ++i) {
    const Clock::time_point t0 = Clock::now();
    const Answer answer = run_untraced(tasks[i]);
    untraced_ms += ms_since(t0);
    tracer.begin_request(tasks[i].label);
    const Answer traced = replay_traced(tasks[i], tracer, counts);
    tracer.end_request();
    const std::string why = replay_mismatch(tasks[i], traced, answer);
    result.gate.check(why.empty(), tasks[i].label + ": traced replay " + why);
  }
  const IngestProbe probe57 = probe_ingest(57, args.seed);
  const IngestProbe probe118 = probe_ingest(118, args.seed);
  print_layer_table("service (whole ladder)", service_spans, 0.0);
  print_layer_table("layer (cold requests replayed)", tracer, untraced_ms);
  const std::string stem = args.out_dir + "/trace-" + args.workload + "-seed" +
                           std::to_string(args.seed);
  tracer.write(stem + ".jsonl");
  service_spans.write(stem + "-service.jsonl");
  result.metrics = layer_metrics(tracer, counts, service, probe57, probe118, untraced_ms);
  return result;
}

}  // namespace perfbench
