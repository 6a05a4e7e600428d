// Traced run: spans recorded from outside the library, around each layer's
// public entry points, and a replay of each request through those layers.
//
// The replay takes the same steps ScadaAnalyzer::verify and its session
// take (ThreatEncoder::threat → CnfTransformer into a RecordingSink →
// CdclSolver::add_clause → freeze builder vars → simplify → solve →
// minimize_threat), so each step's time is attributed to its layer. Spans
// are kept in memory and written out when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "reference.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::uint64_t request = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = none (the request's root span)
    const char* name = "";
    double start_us = 0.0;
    double end_us = 0.0;
  };

  /// RAII span around one layer call.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name) : tracer_(tracer), id_(tracer.open(name)) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::uint32_t id_;
  };

  /// Opens the root span of a new request; `label` names its class.
  void begin_request(const std::string& label);
  /// Closes the root span; returns its duration in ms.
  double end_request();

  std::uint32_t open(const char* name);
  void close(std::uint32_t id);

  /// Records a finished request from timestamps taken elsewhere (the
  /// service path, timed on the generator and collector threads): a root
  /// span from `start` to `end` with one child per {name, start, end}.
  struct Interval {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
  };
  void add_request(const std::string& label, Clock::time_point start, Clock::time_point end,
                   const std::vector<Interval>& children);

  /// Sum of self time (duration minus direct children) per span name, over
  /// requests whose label matches (empty = all).
  [[nodiscard]] std::map<std::string, double> self_ms(const std::string& label = "") const;
  /// Sum of root-span durations over matching requests.
  [[nodiscard]] double request_ms(const std::string& label = "") const;
  [[nodiscard]] std::size_t requests() const noexcept { return labels_.size(); }
  [[nodiscard]] std::vector<std::string> labels() const;

  /// Writes one JSON object per span (request id, span id, parent id).
  void write(const std::string& path) const;

 private:
  [[nodiscard]] double now_us() const;
  [[nodiscard]] double us_at(Clock::time_point t) const;

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::string> labels_;  ///< per request
  std::vector<std::uint32_t> stack_;
};

/// Work counts recorded at the same boundaries as the spans.
struct LayerCounts {
  std::uint64_t paths = 0;
  std::uint64_t clauses = 0;
  std::uint64_t literals = 0;
  std::uint64_t solve_calls = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t propagations = 0;
  std::uint64_t watch_inspections = 0;
  std::uint64_t blocker_hits = 0;
  std::uint64_t arena_peak_bytes = 0;
  std::uint64_t vars_eliminated = 0;
  std::uint64_t solver_vars = 0;
  std::uint64_t minimize_in = 0;   ///< failures entering minimize_threat
  std::uint64_t minimize_out = 0;  ///< failures left after it
  std::uint64_t maxres_probes = 0;
  std::uint64_t maxsat_iterations = 0;
  std::uint64_t optimize_calls = 0;
  std::uint64_t maxres_calls = 0;
};

/// Replays `task` through the layers under spans; the caller has opened the
/// request span. Returns the replay's own answer (compared with the
/// untraced call's).
[[nodiscard]] Answer replay_traced(const Task& task, Tracer& tracer, LayerCounts& counts);

/// Empty when the traced replay took the library's steps and reached the
/// untraced call's answer; otherwise what differed. A verify replay must run
/// as many inprocessing passes as the untraced session, and no replayed
/// solve() may run a pass of its own: either would mean the replay's copy
/// of the solver's simplify trigger no longer matches the solver.
[[nodiscard]] std::string replay_mismatch(const Task& task, const Answer& traced,
                                          const Answer& untraced);

/// Ingestion per literal of one Fig. 5-shaped threat CNF at `buses` buses
/// (observability, k = 1): the asymptotic-cost probe of the traced run.
struct IngestProbe {
  std::uint64_t literals = 0;
  double ingest_ms = 0.0;
  [[nodiscard]] double ns_per_literal() const {
    return literals == 0 ? 0.0 : ingest_ms * 1e6 / static_cast<double>(literals);
  }
};
[[nodiscard]] IngestProbe probe_ingest(int buses, std::uint64_t seed);

/// Service-layer observations of the traced run.
struct ServiceCounts {
  std::vector<double> dispatch_us;
  std::vector<double> render_us;
  std::vector<double> queue_ms_hit;
  std::vector<double> queue_ms_cold;
  std::vector<double> run_ms;
  std::uint64_t hits = 0;
  std::uint64_t responses = 0;
  std::uint64_t coalesced = 0;
};

/// Builds the per-layer metric set of a traced run. `untraced_ms` is the
/// summed untraced time of the replayed requests (the overhead base).
[[nodiscard]] std::vector<Metric> layer_metrics(const Tracer& tracer, const LayerCounts& counts,
                                                const ServiceCounts& service,
                                                const IngestProbe& probe57,
                                                const IngestProbe& probe118,
                                                double untraced_ms);

/// Prints the self-time table of `tracer`'s spans, overall and per request
/// label, and the overhead against `untraced_ms` when that is positive.
void print_layer_table(const std::string& title, const Tracer& tracer, double untraced_ms);

}  // namespace perfbench
