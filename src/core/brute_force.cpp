#include "scada/core/brute_force.hpp"

#include <algorithm>

#include "scada/util/combinatorics.hpp"
#include "scada/util/timer.hpp"

namespace scada::core {

BruteForceVerifier::BruteForceVerifier(const ScadaScenario& scenario, EncoderOptions options)
    : scenario_(scenario), options_(options), oracle_(scenario, options) {}

std::vector<BruteForceVerifier::Candidate> BruteForceVerifier::candidate_pool(
    const ResiliencySpec& spec) const {
  std::vector<Candidate> pool;
  for (const int id : scenario_.ied_ids()) pool.push_back({Candidate::Kind::Ied, id});
  for (const int id : scenario_.rtu_ids()) pool.push_back({Candidate::Kind::Rtu, id});
  // Mirror ThreatEncoder::failure_budget: links are free decisions only when
  // the extension is on AND a combined budget governs them; with per-type
  // budgets the encoder pins every link up, so they leave the pool entirely.
  if (options_.links_can_fail && spec.k_total.has_value()) {
    std::vector<int> link_ids;
    for (const auto& link : scenario_.topology().links()) {
      if (link.up) link_ids.push_back(link.id);
    }
    std::sort(link_ids.begin(), link_ids.end());
    for (const int id : link_ids) pool.push_back({Candidate::Kind::Link, id});
  }
  return pool;
}

std::size_t BruteForceVerifier::max_subset_size(const ResiliencySpec& spec,
                                                std::size_t pool_size) const {
  std::size_t m = 0;
  if (spec.k_total) m = static_cast<std::size_t>(std::max(0, *spec.k_total));
  if (spec.k_ied || spec.k_rtu) {
    const auto k1 = static_cast<std::size_t>(std::max(0, spec.k_ied.value_or(0)));
    const auto k2 = static_cast<std::size_t>(std::max(0, spec.k_rtu.value_or(0)));
    m = std::max(m, k1 + k2);
  }
  return std::min(m, pool_size);
}

ThreatVector BruteForceVerifier::subset_to_vector(std::span<const std::size_t> subset,
                                                  const std::vector<Candidate>& pool) {
  ThreatVector v;
  for (const std::size_t i : subset) {
    const Candidate& c = pool[i];
    switch (c.kind) {
      case Candidate::Kind::Ied: v.failed_ieds.push_back(c.id); break;
      case Candidate::Kind::Rtu: v.failed_rtus.push_back(c.id); break;
      case Candidate::Kind::Link: v.failed_links.push_back(c.id); break;
    }
  }
  return v;
}

bool BruteForceVerifier::within_budget(const ThreatVector& v, const ResiliencySpec& spec) const {
  if (spec.k_total.has_value() &&
      static_cast<int>(v.failed_ieds.size() + v.failed_rtus.size() + v.failed_links.size()) >
          *spec.k_total) {
    return false;
  }
  if (spec.k_ied.has_value() && static_cast<int>(v.failed_ieds.size()) > *spec.k_ied) {
    return false;
  }
  if (spec.k_rtu.has_value() && static_cast<int>(v.failed_rtus.size()) > *spec.k_rtu) {
    return false;
  }
  return true;
}

bool BruteForceVerifier::violates(Property property, const ThreatVector& v, int r) const {
  return !oracle_.holds(property, v.to_contingency(), r);
}

VerificationResult BruteForceVerifier::verify(Property property,
                                              const ResiliencySpec& spec) const {
  util::WallTimer timer;
  VerificationResult out;
  out.result = smt::SolveResult::Unsat;

  // Candidate pool: field devices plus (under a combined budget) links;
  // subsets ordered by size, so the first hit is a smallest threat vector.
  const std::vector<Candidate> pool = candidate_pool(spec);
  const std::size_t max_size = max_subset_size(spec, pool.size());

  util::for_each_subset_up_to(pool.size(), max_size, [&](const std::vector<std::size_t>& subset) {
    ThreatVector v = subset_to_vector(subset, pool);
    if (!within_budget(v, spec)) return true;  // keep searching
    if (violates(property, v, spec.r)) {
      out.result = smt::SolveResult::Sat;
      out.threat = std::move(v);
      return false;  // stop
    }
    return true;
  });

  out.solve_seconds = timer.seconds();
  return out;
}

std::vector<ThreatVector> BruteForceVerifier::enumerate_threats(
    Property property, const ResiliencySpec& spec) const {
  const std::vector<Candidate> pool = candidate_pool(spec);
  const std::size_t max_size = max_subset_size(spec, pool.size());

  std::vector<ThreatVector> threats;
  util::for_each_subset_up_to(pool.size(), max_size, [&](const std::vector<std::size_t>& subset) {
    ThreatVector v = subset_to_vector(subset, pool);
    if (!within_budget(v, spec)) return true;
    if (!violates(property, v, spec.r)) return true;
    // Minimality: no already-found threat may be a subset of v (size order
    // guarantees found threats are never larger). Devices and links both
    // participate in the subset relation.
    const Contingency c = v.to_contingency();
    for (const ThreatVector& prior : threats) {
      const Contingency pc = prior.to_contingency();
      const bool subset_of_v =
          std::includes(c.failed_devices.begin(), c.failed_devices.end(),
                        pc.failed_devices.begin(), pc.failed_devices.end()) &&
          std::includes(c.failed_links.begin(), c.failed_links.end(),
                        pc.failed_links.begin(), pc.failed_links.end());
      if (subset_of_v) return true;  // v is a superset of a known threat
    }
    threats.push_back(std::move(v));
    return true;
  });
  return threats;
}

}  // namespace scada::core
