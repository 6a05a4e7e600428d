#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>

#include "scada/core/encoder.hpp"
#include "scada/core/oracle.hpp"
#include "scada/core/paths.hpp"
#include "scada/smt/cdcl.hpp"
#include "scada/smt/cnf.hpp"
#include "scada/smt/sink.hpp"

namespace perfbench {

using scada::core::Property;
using scada::core::ResiliencySpec;
using scada::core::ThreatVector;
using scada::smt::Formula;
using scada::smt::Lit;
using scada::smt::SolveResult;

// --- Tracer ---------------------------------------------------------------

double Tracer::now_us() const { return us_at(Clock::now()); }

double Tracer::us_at(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

void Tracer::add_request(const std::string& label, Clock::time_point start,
                         Clock::time_point end, const std::vector<Interval>& children) {
  labels_.push_back(label);
  const auto add = [&](const char* name, std::uint32_t parent, Clock::time_point a,
                       Clock::time_point b) {
    Span span;
    span.request = labels_.size();
    span.id = static_cast<std::uint32_t>(spans_.size() + 1);
    span.parent = parent;
    span.name = name;
    span.start_us = us_at(a);
    span.end_us = us_at(b);
    spans_.push_back(span);
    return span.id;
  };
  const std::uint32_t root = add("request", 0, start, end);
  for (const Interval& child : children) add(child.name, root, child.start, child.end);
}

void Tracer::begin_request(const std::string& label) {
  labels_.push_back(label);
  stack_.clear();
  stack_.push_back(open("request"));
}

double Tracer::end_request() {
  const std::uint32_t root = stack_.front();
  close(root);
  stack_.clear();
  const Span& s = spans_[root - 1];
  return (s.end_us - s.start_us) / 1e3;
}

std::uint32_t Tracer::open(const char* name) {
  Span span;
  span.request = labels_.size();
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = stack_.empty() ? 0 : stack_.back();
  span.name = name;
  span.start_us = now_us();
  spans_.push_back(span);
  stack_.push_back(span.id);
  return span.id;
}

void Tracer::close(std::uint32_t id) {
  spans_[id - 1].end_us = now_us();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::map<std::string, double> Tracer::self_ms(const std::string& label) const {
  std::vector<double> child_us(spans_.size() + 1, 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    if (!label.empty() && labels_[s.request - 1] != label) continue;
    out[s.name] += (s.end_us - s.start_us - child_us[s.id]) / 1e3;
  }
  return out;
}

double Tracer::request_ms(const std::string& label) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent != 0 || (!label.empty() && labels_[s.request - 1] != label)) continue;
    total += (s.end_us - s.start_us) / 1e3;
  }
  return total;
}

std::vector<std::string> Tracer::labels() const {
  std::vector<std::string> out;
  for (const std::string& l : labels_) {
    if (std::find(out.begin(), out.end(), l) == out.end()) out.push_back(l);
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans_) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"request\":%llu,\"label\":\"%s\",\"span\":%u,\"parent\":%u,\"name\":\"%s\","
                  "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  static_cast<unsigned long long>(s.request), labels_[s.request - 1].c_str(),
                  s.id, s.parent, s.name, s.start_us, s.end_us);
    out << line;
  }
}

// --- Layer replay -----------------------------------------------------------

namespace {

/// The CNF/solver half of a CDCL session, driven step by step: Tseitin into
/// a RecordingSink, then the recorded clauses into a CdclSolver.
class Pipeline {
 public:
  Pipeline(const scada::smt::FormulaBuilder& builder, const scada::smt::SessionOptions& options,
           Tracer& tracer, LayerCounts& counts)
      : builder_(builder),
        tracer_(tracer),
        counts_(counts),
        cnf_(builder, sink_, options.card_encoding),
        solver_(scada::smt::CdclConfig{.restart_mode = options.restart_mode,
                                       .tiered_db = options.tiered_db,
                                       .rephase_interval = options.rephase_interval,
                                       .chrono = options.chrono,
                                       .max_conflicts = options.max_conflicts,
                                       .simplify = options.simplify}),
        simplify_(options.simplify) {}

  ~Pipeline() {
    const scada::smt::CdclStats& s = solver_.stats();
    counts_.conflicts += s.conflicts;
    counts_.propagations += s.propagations;
    counts_.watch_inspections += s.watch_inspections;
    counts_.blocker_hits += s.blocker_hits;
    counts_.vars_eliminated += s.vars_eliminated;
    counts_.solver_vars += static_cast<std::uint64_t>(solver_.num_vars());
    counts_.arena_peak_bytes =
        std::max<std::uint64_t>(counts_.arena_peak_bytes, solver_.peak_arena_bytes());
  }

  void assert_root(Formula f) {
    {
      Tracer::Scope span(tracer_, "smt.cnf");
      cnf_.assert_root(f);
    }
    ingest();
  }

  Lit define(Formula f) {
    Lit lit;
    {
      Tracer::Scope span(tracer_, "smt.cnf");
      lit = cnf_.define(f);
    }
    ingest();
    return lit;
  }

  SolveResult solve(std::span<const Lit> assumptions = {}) {
    {
      Tracer::Scope span(tracer_, "smt.cdcl.freeze");
      for (scada::smt::Var v = 1; v <= builder_.num_vars(); ++v) {
        if (const auto sv = cnf_.try_solver_var(v)) solver_.freeze(*sv);
      }
    }
    // The pass solve() itself would run now (a copy of its growth rule),
    // taken out of the search span so it is attributed to inprocessing.
    if (simplify_ && (!simplified_ || solver_.num_clauses() >
                                          clauses_at_simplify_ + clauses_at_simplify_ / 4 + 100)) {
      Tracer::Scope span(tracer_, "smt.simplify");
      solver_.simplify();
      simplified_ = true;
      clauses_at_simplify_ = solver_.num_clauses();
    }
    ++counts_.solve_calls;
    const std::uint64_t rounds = solver_.stats().simplify_rounds;
    SolveResult result;
    {
      Tracer::Scope span(tracer_, "smt.cdcl.search");
      result = solver_.solve(assumptions);
    }
    // A pass of solve()'s own means the copied rule has drifted from it.
    if (solver_.stats().simplify_rounds != rounds) ++unplanned_simplify_;
    return result;
  }

  [[nodiscard]] std::size_t clauses_fed() const noexcept { return fed_; }
  [[nodiscard]] std::uint64_t simplify_rounds() const noexcept {
    return solver_.stats().simplify_rounds;
  }
  [[nodiscard]] std::uint64_t unplanned_simplify() const noexcept { return unplanned_simplify_; }

  [[nodiscard]] bool value(Formula f) const {
    return scada::smt::evaluate_formula(builder_, f, [&](scada::smt::Var v) {
      const auto sv = cnf_.try_solver_var(v);
      return sv.has_value() && solver_.model_value(*sv);
    });
  }

 private:
  void ingest() {
    Tracer::Scope span(tracer_, "smt.cdcl.ingest");
    const auto& clauses = sink_.clauses();
    solver_.ensure_var(sink_.num_vars());
    for (; fed_ < clauses.size(); ++fed_) {
      counts_.literals += clauses[fed_].size();
      solver_.add_clause(clauses[fed_]);
    }
  }

  const scada::smt::FormulaBuilder& builder_;
  Tracer& tracer_;
  LayerCounts& counts_;
  scada::smt::RecordingSink sink_;
  scada::smt::CnfTransformer cnf_;
  scada::smt::CdclSolver solver_;
  bool simplify_;
  bool simplified_ = false;
  std::size_t clauses_at_simplify_ = 0;
  std::uint64_t unplanned_simplify_ = 0;
  std::size_t fed_ = 0;
};

ThreatVector extract(const scada::core::ThreatEncoder& encoder, const Pipeline& pipe) {
  const scada::core::ScadaScenario& scenario = encoder.scenario();
  ThreatVector v;
  for (const int id : scenario.ied_ids()) {
    if (!pipe.value(encoder.node_var(id))) v.failed_ieds.push_back(id);
  }
  for (const int id : scenario.rtu_ids()) {
    if (!pipe.value(encoder.node_var(id))) v.failed_rtus.push_back(id);
  }
  if (encoder.options().links_can_fail) {
    for (const auto& link : scenario.topology().links()) {
      if (link.up && !pipe.value(encoder.link_var(link.id))) v.failed_links.push_back(link.id);
    }
  }
  return v;
}

ThreatVector minimize(const scada::core::ScenarioOracle& oracle, Property property,
                      const ResiliencySpec& spec, ThreatVector v, Tracer& tracer,
                      LayerCounts& counts) {
  counts.minimize_in += v.size();
  {
    Tracer::Scope span(tracer, "core.minimize");
    v = scada::core::minimize_threat(oracle, property, spec, std::move(v));
  }
  counts.minimize_out += v.size();
  return v;
}

std::uint64_t path_count(const scada::core::ScadaScenario& scenario, Property property) {
  static std::map<std::pair<const void*, int>, std::uint64_t> memo;
  const auto key = std::make_pair(static_cast<const void*>(&scenario), static_cast<int>(property));
  if (const auto it = memo.find(key); it != memo.end()) return it->second;
  const auto kind = property == Property::SecuredObservability
                        ? scada::core::DeliveryKind::Secured
                        : scada::core::DeliveryKind::Assured;
  std::uint64_t n = 0;
  for (const int id : scenario.ied_ids()) {
    n += scada::core::admissible_paths(scenario, id, kind).size();
  }
  return memo[key] = n;
}

}  // namespace

Answer replay_traced(const Task& task, Tracer& tracer, LayerCounts& counts) {
  const scada::core::ScadaScenario& scenario = *task.scenario;
  const scada::core::AnalyzerOptions options = cdcl_options();
  Answer out;

  if (task.op == Op::SecurityIndex) {
    // MaxSAT runs inside its own sessions: timed as one optimizer span.
    Tracer::Scope span(tracer, "core.optimize");
    scada::core::Optimizer optimizer(scenario, scada::core::OptimizerOptions{options});
    const scada::core::SecurityIndexResult r = optimizer.security_index(task.property);
    out.attackable = r.attackable;
    out.index = r.index;
    out.witness = r.witness;
    out.verdict = r.completed ? SolveResult::Sat : SolveResult::Unknown;
    ++counts.optimize_calls;
    counts.maxsat_iterations += r.maxsat.iterations;
    return out;
  }

  counts.paths += path_count(scenario, task.property);
  std::optional<scada::core::ScenarioOracle> oracle;
  {
    Tracer::Scope span(tracer, "core.oracle");
    oracle.emplace(scenario, options.encoder);
  }
  scada::smt::FormulaBuilder builder;
  std::optional<scada::core::ThreatEncoder> encoder;
  Formula root;
  {
    Tracer::Scope span(tracer, "core.encoder");
    encoder.emplace(scenario, options.encoder, builder);
    if (task.op == Op::MaxResiliency) {
      const Formula prop = task.property == Property::SecuredObservability
                               ? encoder->secured_observability()
                               : encoder->observability();
      root = builder.mk_not(prop);
    } else {
      root = encoder->threat(task.property, task.spec());
    }
  }
  Pipeline pipe(builder, options.solver, tracer, counts);
  pipe.assert_root(root);

  switch (task.op) {
    case Op::Verify: {
      out.verdict = pipe.solve();
      if (out.verdict == SolveResult::Sat) {
        out.threat = minimize(*oracle, task.property, task.spec(), extract(*encoder, pipe),
                              tracer, counts);
      }
      break;
    }
    case Op::Enumerate: {
      while (out.threats.size() < 1024) {
        if (pipe.solve() != SolveResult::Sat) break;
        ThreatVector v = minimize(*oracle, task.property, task.spec(), extract(*encoder, pipe),
                                  tracer, counts);
        std::vector<Formula> block;
        {
          Tracer::Scope span(tracer, "core.encoder");
          for (const int id : v.failed_ieds) block.push_back(encoder->node_var(id));
          for (const int id : v.failed_rtus) block.push_back(encoder->node_var(id));
          for (const int id : v.failed_links) block.push_back(encoder->link_var(id));
        }
        pipe.assert_root(builder.mk_or(block));
        out.threats.push_back(std::move(v));
      }
      out.verdict = SolveResult::Sat;
      break;
    }
    case Op::MaxResiliency: {
      const int limit = static_cast<int>(scenario.ied_ids().size() + scenario.rtu_ids().size());
      out.max_k = limit;
      out.verdict = SolveResult::Sat;
      for (int k = 0; k <= limit; ++k) {
        Formula selector;
        Formula guarded;
        {
          Tracer::Scope span(tracer, "core.encoder");
          selector = builder.mk_var("budget_sel_" + std::to_string(k));
          guarded = builder.mk_implies(selector, encoder->failure_budget(ResiliencySpec::total(k)));
        }
        pipe.assert_root(guarded);
        const Lit assumption = pipe.define(selector);
        ++counts.maxres_probes;
        const SolveResult r = pipe.solve(std::span(&assumption, 1));
        if (r == SolveResult::Unknown) {
          out.verdict = SolveResult::Unknown;
          out.max_k = -2;
          break;
        }
        if (r == SolveResult::Sat) {
          out.max_k = k - 1;
          break;
        }
      }
      ++counts.maxres_calls;
      break;
    }
    case Op::SecurityIndex:
      break;
  }
  counts.clauses += pipe.clauses_fed();
  out.simplify_rounds = pipe.simplify_rounds();
  out.unplanned_simplify = pipe.unplanned_simplify();
  return out;
}

std::string replay_mismatch(const Task& task, const Answer& traced, const Answer& untraced) {
  if (traced.unplanned_simplify != 0) {
    return "solve() ran " + std::to_string(traced.unplanned_simplify) +
           " inprocessing pass(es) the replay did not take out of the search span";
  }
  bool same = false;
  switch (task.op) {
    case Op::Verify:
      if (traced.simplify_rounds != untraced.simplify_rounds) {
        return "ran " + std::to_string(traced.simplify_rounds) + " inprocessing pass(es), the " +
               "untraced verify " + std::to_string(untraced.simplify_rounds);
      }
      same = traced.verdict == untraced.verdict;
      break;
    case Op::Enumerate: same = traced.threats.size() == untraced.threats.size(); break;
    case Op::MaxResiliency: same = traced.max_k == untraced.max_k; break;
    case Op::SecurityIndex:
      same = traced.attackable == untraced.attackable && traced.index == untraced.index;
      break;
  }
  return same ? "" : "gave another answer";
}

IngestProbe probe_ingest(int buses, std::uint64_t seed) {
  scada::synth::SynthConfig config;
  config.buses = buses;
  config.measurement_fraction = 0.75;
  config.hierarchy_level = 2;
  config.secured_hop_fraction = 0.95;
  config.seed = seed;
  const scada::core::ScadaScenario scenario = scada::synth::generate_scenario(config);
  scada::smt::FormulaBuilder builder;
  scada::core::ThreatEncoder encoder(scenario, {}, builder);
  const Formula threat = encoder.threat(Property::Observability, ResiliencySpec::total(1));
  scada::smt::RecordingSink sink;
  scada::smt::CnfTransformer cnf(builder, sink);
  cnf.assert_root(threat);

  IngestProbe probe;
  scada::smt::CdclSolver solver;
  const Clock::time_point start = Clock::now();
  solver.ensure_var(sink.num_vars());
  for (const auto& clause : sink.clauses()) solver.add_clause(clause);
  probe.ingest_ms = ms_since(start);
  for (const auto& clause : sink.clauses()) probe.literals += clause.size();
  return probe;
}

// --- Metrics ----------------------------------------------------------------

namespace {

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Layer spans whose self time counts toward coverage (root glue excluded).
const std::set<std::string>& layer_names() {
  static const std::set<std::string> names = {
      "core.oracle",   "core.encoder",     "smt.cnf",         "smt.cdcl.ingest",
      "smt.cdcl.freeze", "smt.simplify",   "smt.cdcl.search", "core.minimize",
      "core.optimize", "loadgen.lateness", "service.dispatch", "service.wait",
      "service.render"};
  return names;
}

double coverage(const std::map<std::string, double>& self, double request_ms) {
  double layers = 0.0;
  for (const auto& [name, ms] : self) {
    if (layer_names().count(name) != 0) layers += ms;
  }
  return ratio(layers, request_ms);
}

}  // namespace

std::vector<Metric> layer_metrics(const Tracer& tracer, const LayerCounts& counts,
                                  const ServiceCounts& service, const IngestProbe& probe57,
                                  const IngestProbe& probe118, double untraced_ms) {
  const std::map<std::string, double> self = tracer.self_ms();
  const double requests = static_cast<double>(std::max<std::size_t>(tracer.requests(), 1));
  const auto per_request = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / requests;
  };
  const double request_ms = tracer.request_ms();
  const double search_ms = per_request("smt.cdcl.search") * requests;
  return {
      {"smt.cdcl.ingest_ms", per_request("smt.cdcl.ingest"), "ms"},
      {"smt.cdcl.ingest_ns_per_lit_57", probe57.ns_per_literal(), "ns"},
      {"smt.cdcl.ingest_ns_per_lit_118", probe118.ns_per_literal(), "ns"},
      {"smt.cdcl.ingest_ratio_118_57",
       ratio(probe118.ns_per_literal(), probe57.ns_per_literal()), "x"},
      {"smt.simplify.ms", per_request("smt.simplify"), "ms"},
      {"smt.simplify.vars_eliminated", static_cast<double>(counts.vars_eliminated) / requests,
       "count"},
      {"smt.simplify.elim_ratio",
       ratio(static_cast<double>(counts.vars_eliminated), static_cast<double>(counts.solver_vars)),
       "ratio"},
      {"smt.cdcl.search_ms", per_request("smt.cdcl.search"), "ms"},
      {"smt.cdcl.solve_calls", static_cast<double>(counts.solve_calls) / requests, "count"},
      {"smt.cdcl.conflicts", static_cast<double>(counts.conflicts) / requests, "count"},
      {"smt.cdcl.propagations", static_cast<double>(counts.propagations) / requests, "count"},
      {"smt.cdcl.props_per_s",
       ratio(static_cast<double>(counts.propagations), search_ms / 1e3), "1/s"},
      {"smt.cdcl.blocker_hit_ratio",
       ratio(static_cast<double>(counts.blocker_hits),
             static_cast<double>(counts.watch_inspections)),
       "ratio"},
      {"smt.cdcl.arena_peak_bytes", static_cast<double>(counts.arena_peak_bytes), "bytes"},
      {"core.encoder.ms", per_request("core.encoder"), "ms"},
      {"core.paths.count", static_cast<double>(counts.paths) / requests, "count"},
      {"smt.cnf.tseitin_ms", per_request("smt.cnf"), "ms"},
      {"smt.cnf.clauses", static_cast<double>(counts.clauses) / requests, "count"},
      {"smt.cnf.literals", static_cast<double>(counts.literals) / requests, "count"},
      {"core.minimize.ms", per_request("core.minimize"), "ms"},
      {"core.minimize.shrink_ratio",
       1.0 - ratio(static_cast<double>(counts.minimize_out),
                   static_cast<double>(counts.minimize_in)),
       "ratio"},
      {"core.optimize.maxres_probes",
       ratio(static_cast<double>(counts.maxres_probes), static_cast<double>(counts.maxres_calls)),
       "count"},
      {"smt.maxsat.iterations",
       ratio(static_cast<double>(counts.maxsat_iterations),
             static_cast<double>(counts.optimize_calls)),
       "count"},
      {"service.dispatch_us", median(service.dispatch_us), "us"},
      {"service.render_us", median(service.render_us), "us"},
      {"service.queue_ms_hit", median(service.queue_ms_hit), "ms"},
      {"service.queue_ms_cold", median(service.queue_ms_cold), "ms"},
      {"service.run_ms", mean(service.run_ms), "ms"},
      {"service.cache_hit_rate",
       ratio(static_cast<double>(service.hits), static_cast<double>(service.responses)), "ratio"},
      {"service.coalesced", static_cast<double>(service.coalesced), "count"},
      {"trace.overhead_ratio", ratio(request_ms, untraced_ms), "ratio"},
      {"trace.coverage", coverage(self, request_ms), "ratio"},
  };
}

void print_layer_table(const std::string& title, const Tracer& tracer, double untraced_ms) {
  std::vector<std::string> labels = tracer.labels();
  labels.insert(labels.begin(), "");
  for (const std::string& label : labels) {
    const std::map<std::string, double> self = tracer.self_ms(label);
    const double total = tracer.request_ms(label);
    std::printf("%s self time, %s (%.1f ms over requests, coverage %.3f):\n", title.c_str(),
                label.empty() ? "all requests" : label.c_str(), total, coverage(self, total));
    std::vector<std::pair<double, std::string>> rows;
    for (const auto& [name, ms] : self) rows.emplace_back(ms, name);
    std::sort(rows.rbegin(), rows.rend());
    for (const auto& [ms, name] : rows) {
      std::printf("    %-18s %10.2f ms  %5.1f%%\n", name == "request" ? "(request glue)" : name.c_str(),
                  ms, 100.0 * ratio(ms, total));
    }
  }
  if (untraced_ms <= 0.0) return;
  std::printf("trace overhead: traced %.1f ms vs untraced %.1f ms (ratio %.3f)\n",
              tracer.request_ms(), untraced_ms, ratio(tracer.request_ms(), untraced_ms));
}

}  // namespace perfbench
