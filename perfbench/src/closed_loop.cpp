#include <algorithm>
#include <cstdio>
#include <exception>
#include <map>

#include "service.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr double kSetupEveryMs = 1000.0;

const Reference& reference_of(ClosedLoopPlan& plan, std::size_t i) {
  if (!plan.refs[i].has_value()) plan.refs[i] = plan.reference(plan.tasks[i]);
  return *plan.refs[i];
}

}  // namespace

RunResult run_closed_loop(const Args& args, ClosedLoopPlan plan) {
  plan.refs.resize(plan.tasks.size());
  RunResult result;
  std::mt19937_64 order_rng = rng_for(args.seed, 7);
  Tracer tracer;
  LayerCounts counts;
  double untraced_ms = 0.0;
  std::vector<double> latencies;
  std::vector<double> round_rates;  ///< requests/s of each complete round
  std::vector<std::pair<std::size_t, Answer>> answers;

  std::vector<double> round_rss_mb;  ///< peak RSS of each complete round
  reset_peak_rss();
  const Clock::time_point start = Clock::now();
  const auto expired = [&] { return ms_since(start) >= args.seconds * 1e3; };
  Clock::time_point last_setup = start;
  // The first round always completes, so every run has a round time.
  for (std::size_t r = 0; r == 0 || !expired(); ++r) {
    // About once a second, between rounds, the set-up is timed again: a
    // busy spell of the host then moves setup_s no more than the latencies.
    if (ms_since(last_setup) >= kSetupEveryMs) {
      plan.setup_s.push_back(plan.time_setup());
      last_setup = Clock::now();
    }
    std::vector<std::size_t> order = plan.rounds[r % plan.rounds.size()];
    std::shuffle(order.begin(), order.end(), order_rng);
    const Clock::time_point round_start = Clock::now();
    bool complete = true;
    for (const std::size_t i : order) {
      if (r > 0 && expired()) {
        complete = false;
        break;
      }
      const Task& task = plan.tasks[i];
      const Clock::time_point t0 = Clock::now();
      Answer answer;
      try {
        answer = run_untraced(task);
      } catch (const std::exception& e) {
        result.gate.fail(task.label + " threw: " + e.what());
        continue;
      }
      const double ms = ms_since(t0);
      latencies.push_back(ms);
      if (args.trace) {
        untraced_ms += ms;
        tracer.begin_request(task.label);
        Answer traced;
        try {
          traced = replay_traced(task, tracer, counts);
        } catch (const std::exception& e) {
          traced.verdict = scada::smt::SolveResult::Unknown;
          std::fprintf(stderr, "perfbench: replay threw: %s\n", e.what());
        }
        tracer.end_request();
        const std::string why = replay_mismatch(task, traced, answer);
        result.gate.check(why.empty(), task.label + ": traced replay " + why);
      }
      answers.emplace_back(i, std::move(answer));
    }
    if (complete) {
      round_rates.push_back(static_cast<double>(order.size()) / (ms_since(round_start) / 1e3));
      round_rss_mb.push_back(peak_rss_mb());
    }
    reset_peak_rss();
  }
  const double elapsed_s = ms_since(start) / 1e3;

  // References for every task the loop ran, then every answer's check —
  // both after the timed loop, in parallel.
  std::vector<std::size_t> missing;
  for (const auto& [i, answer] : answers) {
    if (!plan.refs[i].has_value() &&
        std::find(missing.begin(), missing.end(), i) == missing.end()) {
      missing.push_back(i);
    }
  }
  parallel_for(missing.size(), [&](std::size_t m) {
    plan.refs[missing[m]] = plan.reference(plan.tasks[missing[m]]);
  });
  std::vector<std::string> verdicts(answers.size());
  parallel_for(answers.size(), [&](std::size_t a) {
    const std::size_t i = answers[a].first;
    try {
      verdicts[a] = check_answer(plan.tasks[i], *plan.refs[i], answers[a].second);
    } catch (const std::exception& e) {
      verdicts[a] = std::string("check threw: ") + e.what();
    }
  });
  for (std::size_t a = 0; a < answers.size(); ++a) {
    const Task& task = plan.tasks[answers[a].first];
    result.gate.check(verdicts[a].empty(), task.label + " " + op_name(task.op) +
                                               " k=" + std::to_string(task.k) + ": " +
                                               verdicts[a]);
  }

  print_setup(plan.setup_s);
  std::printf("requests: sent=%zu in %.2f s, %zu complete rounds of %zu\n", answers.size(),
              elapsed_s, round_rates.size(), plan.rounds.front().size());
  print_latency("latency (all requests)", latencies);
  // Per-class latency, and the throughput of a round whose every request
  // takes its class's median time.
  std::map<std::string, std::vector<double>> by_class;
  for (std::size_t a = 0; a < answers.size(); ++a) {
    by_class[plan.tasks[answers[a].first].cls].push_back(latencies[a]);
  }
  double round_ms = 0.0;
  for (const std::size_t i : plan.rounds.front()) round_ms += median(by_class[plan.tasks[i].cls]);
  const double class_rate = static_cast<double>(plan.rounds.front().size()) / (round_ms / 1e3);
  for (const auto& [cls, sample] : by_class) print_latency("  latency " + cls, sample);
  std::printf("throughput: %.3f verdicts/s at class medians, %.3f at the median round\n",
              class_rate, median(round_rates));

  std::printf("memory: %.1f MB peak RSS in the median round\n", median(round_rss_mb));

  if (!args.trace) {
    result.metrics = {
        {"setup_s", median(plan.setup_s), "s"},
        {"latency_p50_ms", percentile(latencies, 0.5), "ms"},
        {"latency_p90_ms", percentile(latencies, 0.9), "ms"},
        {"verdicts_per_s", class_rate, "1/s"},
    };
    return result;
  }

  // Service leg over the first round's requests, then the ingestion probes.
  std::vector<Task> leg_tasks;
  std::vector<Reference> leg_refs;
  for (const std::size_t i : plan.rounds.front()) {
    leg_tasks.push_back(plan.tasks[i]);
    leg_refs.push_back(reference_of(plan, i));
  }
  const ServiceCounts service = service_leg(leg_tasks, leg_refs, result.gate);
  const IngestProbe probe57 = probe_ingest(57, args.seed);
  const IngestProbe probe118 = probe_ingest(118, args.seed);
  std::printf("ingest probe: 57-bus %llu lits %.1f ms (%.1f ns/lit); 118-bus %llu lits %.1f ms "
              "(%.1f ns/lit)\n",
              static_cast<unsigned long long>(probe57.literals), probe57.ingest_ms,
              probe57.ns_per_literal(), static_cast<unsigned long long>(probe118.literals),
              probe118.ingest_ms, probe118.ns_per_literal());
  print_layer_table("layer", tracer, untraced_ms);
  tracer.write(args.out_dir + "/trace-" + args.workload + "-seed" + std::to_string(args.seed) +
               ".jsonl");
  result.metrics = layer_metrics(tracer, counts, service, probe57, probe118, untraced_ms);
  return result;
}

}  // namespace perfbench
