#include "reference.hpp"

#include <algorithm>

#include "scada/core/brute_force.hpp"

namespace perfbench {

using scada::core::BruteForceVerifier;
using scada::core::FailureClass;
using scada::core::ResiliencySpec;
using scada::core::ScadaAnalyzer;
using scada::core::ThreatVector;
using scada::smt::SolveResult;

namespace {

/// Brute force only where it stays cheap: small grids (the direct oracle is
/// costly on large ones) and few subsets within the budget.
constexpr int kBruteMaxBuses = 30;
constexpr double kBruteMaxSubsets = 5000;

bool brute_fits(const Task& task, const BruteForceVerifier& brute, int k) {
  if (task.buses > kBruteMaxBuses) return false;
  const double n = static_cast<double>(brute.candidate_pool(ResiliencySpec::total(k)).size());
  double subsets = 1;
  double term = 1;
  for (int j = 1; j <= k; ++j) {
    term = term * (n - j + 1) / j;
    subsets += term;
  }
  return subsets <= kBruteMaxSubsets;
}

scada::core::AnalyzerOptions z3_options() {
  scada::core::AnalyzerOptions options;
  options.solver.backend = scada::smt::Backend::Z3;
  options.minimize_threats = false;
  return options;
}

int device_count(const scada::core::ScadaScenario& scenario) {
  return static_cast<int>(scenario.ied_ids().size() + scenario.rtu_ids().size());
}

bool same_threat_set(std::vector<ThreatVector> a, std::vector<ThreatVector> b) {
  sort_threats(a);
  sort_threats(b);
  return a == b;
}

}  // namespace

const char* op_name(Op op) noexcept {
  switch (op) {
    case Op::Verify: return "verify";
    case Op::Enumerate: return "enumerate";
    case Op::MaxResiliency: return "max_resiliency";
    case Op::SecurityIndex: return "security_index";
  }
  return "?";
}

scada::core::AnalyzerOptions cdcl_options() {
  scada::core::AnalyzerOptions options;
  options.solver.backend = scada::smt::Backend::Cdcl;
  options.certify = false;
  return options;
}

void sort_threats(std::vector<ThreatVector>& threats) {
  const auto key = [](const ThreatVector& v) {
    return std::tie(v.failed_ieds, v.failed_rtus, v.failed_links);
  };
  std::sort(threats.begin(), threats.end(),
            [&](const ThreatVector& a, const ThreatVector& b) { return key(a) < key(b); });
}

Answer run_untraced(const Task& task) {
  Answer out;
  const scada::core::ScadaScenario& scenario = *task.scenario;
  switch (task.op) {
    case Op::Verify: {
      ScadaAnalyzer analyzer(scenario, cdcl_options());
      scada::core::VerificationResult r = analyzer.verify(task.property, task.spec());
      out.verdict = r.result;
      out.threat = std::move(r.threat);
      out.simplify_rounds = r.solver_stats.simplify_rounds;
      break;
    }
    case Op::Enumerate: {
      ScadaAnalyzer analyzer(scenario, cdcl_options());
      out.threats = analyzer.enumerate_threats(task.property, task.spec(), 1024, true);
      out.verdict = SolveResult::Sat;
      break;
    }
    case Op::MaxResiliency: {
      ScadaAnalyzer analyzer(scenario, cdcl_options());
      const scada::core::MaxResiliencyResult r =
          analyzer.max_resiliency(task.property, FailureClass::Combined);
      out.max_k = r.completed ? r.max_k : -2;
      out.verdict = r.completed ? SolveResult::Sat : SolveResult::Unknown;
      break;
    }
    case Op::SecurityIndex: {
      scada::core::Optimizer optimizer(scenario, scada::core::OptimizerOptions{cdcl_options()});
      const scada::core::SecurityIndexResult r = optimizer.security_index(task.property);
      out.attackable = r.attackable;
      out.index = r.index;
      out.witness = r.witness;
      out.verdict = r.completed ? SolveResult::Sat : SolveResult::Unknown;
      break;
    }
  }
  return out;
}

int z3_boundary(const scada::core::ScadaScenario& scenario, scada::core::Property property,
                int cap) {
  ScadaAnalyzer analyzer(scenario, z3_options());
  for (int k = 0; k <= cap; ++k) {
    if (!analyzer.verify(property, ResiliencySpec::total(k)).resilient()) return k - 1;
  }
  return cap;
}

Reference compute_reference(const Task& task, std::optional<SolveResult> z3_verdict) {
  Reference ref;
  const scada::core::ScadaScenario& scenario = *task.scenario;
  const BruteForceVerifier brute(scenario);
  switch (task.op) {
    case Op::Verify: {
      if (z3_verdict.has_value()) {
        ref.verdict = *z3_verdict;
      } else {
        ScadaAnalyzer analyzer(scenario, z3_options());
        ref.verdict = analyzer.verify(task.property, task.spec()).result;
      }
      if (brute_fits(task, brute, task.k)) {
        ref.has_brute = true;
        ref.brute_verdict = brute.verify(task.property, task.spec()).result;
      }
      break;
    }
    case Op::Enumerate: {
      ScadaAnalyzer analyzer(scenario, z3_options());
      ref.threat_count = analyzer.enumerate_threats(task.property, task.spec(), 1024, true).size();
      if (brute_fits(task, brute, task.k)) {
        ref.has_brute = true;
        ref.brute_threats = brute.enumerate_threats(task.property, task.spec());
      }
      break;
    }
    case Op::MaxResiliency:
    case Op::SecurityIndex: {
      // The security index is the smallest attack: one more failure than
      // the largest budget the property survives.
      ScadaAnalyzer analyzer(scenario, z3_options());
      ref.max_k = analyzer.max_resiliency(task.property, FailureClass::Combined).max_k;
      ref.attackable = ref.max_k < device_count(scenario);
      ref.index = static_cast<std::uint64_t>(ref.max_k + 1);
      for (int k = 0; brute_fits(task, brute, k); ++k) {
        if (!brute.verify(task.property, ResiliencySpec::total(k)).resilient()) {
          ref.has_brute = true;
          ref.brute_max_k = k - 1;
          break;
        }
      }
      break;
    }
  }
  return ref;
}

std::string check_answer(const Task& task, const Reference& ref, const Answer& answer) {
  const BruteForceVerifier brute(*task.scenario);
  const auto bad_witness = [&](const ThreatVector& v, const ResiliencySpec& spec) {
    return !brute.violates(task.property, v, spec.r) || !brute.within_budget(v, spec);
  };
  switch (task.op) {
    case Op::Verify: {
      if (answer.verdict != ref.verdict) return "verdict differs from Z3";
      if (ref.has_brute && answer.verdict != ref.brute_verdict) {
        return "verdict differs from brute force";
      }
      if (answer.verdict == SolveResult::Sat) {
        if (!answer.threat.has_value()) return "sat without a threat vector";
        if (bad_witness(*answer.threat, task.spec())) return "threat vector fails re-check";
      }
      return {};
    }
    case Op::Enumerate: {
      if (answer.threats.size() != ref.threat_count) return "threat count differs from Z3";
      if (ref.has_brute && !same_threat_set(answer.threats, ref.brute_threats)) {
        return "threat set differs from brute force";
      }
      for (const ThreatVector& v : answer.threats) {
        if (bad_witness(v, task.spec())) return "enumerated threat fails re-check";
      }
      return {};
    }
    case Op::MaxResiliency: {
      if (answer.max_k != ref.max_k) return "max_k differs from Z3";
      if (ref.has_brute && answer.max_k != ref.brute_max_k) return "max_k differs from brute force";
      return {};
    }
    case Op::SecurityIndex: {
      if (answer.verdict == SolveResult::Unknown) return "security index incomplete";
      if (answer.attackable != ref.attackable) return "attackability differs from Z3";
      if (!answer.attackable) return {};
      if (answer.index != ref.index) return "security index differs from Z3 max_k + 1";
      if (ref.has_brute && answer.index != static_cast<std::uint64_t>(ref.brute_max_k + 1)) {
        return "security index differs from brute force";
      }
      if (answer.witness.size() != answer.index) return "witness size differs from the index";
      if (!brute.violates(task.property, answer.witness, 1)) return "witness does not violate";
      return {};
    }
  }
  return "unknown op";
}

}  // namespace perfbench
