// Fig. 5(a) and 5(b): execution time of k-resilient (secured) observability
// verification vs problem size (IEEE 14/30/57/118-bus synthetic SCADA), on
// both backends.
//
// For each bus size we generate several random SCADA systems (§V-A), locate
// each system's resiliency boundary k*, and time the unsat verification at
// k* and the sat verification at k*+1 — the two curves the paper plots.
// Expected shape: growth between linear and quadratic in the bus count, with
// unsat slower than sat; secured observability slightly above plain.
//
// Both backends run on the same grids. The boundary search and every timed
// run double as a verdict parity check: the CDCL boundary must equal Z3's,
// and each timed verify must give the verdict its budget implies. Any
// disagreement makes the run exit 1. The run writes BENCH_fig5.json with the
// per-size sat/unsat milliseconds of each backend next to the CDCL figures
// of the previous inprocessing pass (baseline_cdcl_*).
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "scada/util/table.hpp"

namespace {

using namespace scada;
using core::Property;

constexpr std::array<int, 4> kBusSizes = {14, 30, 57, 118};

/// CDCL sat/unsat ms per bus size with the previous inprocessing pass (a
/// forward-subsumption scan plus one self-subsumption scan of occ(~l) per
/// literal l of every subsumer, and per-clause scratch vectors), measured
/// with this bench on a Release build on a shared 4-core x86-64 host (mean
/// of two runs).
constexpr std::array<double, 4> kBaselineCdclObsSatMs = {2.2, 8.5, 35.4, 219.4};
constexpr std::array<double, 4> kBaselineCdclObsUnsatMs = {0.4, 4.7, 23.0, 185.7};
constexpr std::array<double, 4> kBaselineCdclSecSatMs = {2.6, 7.2, 32.7, 162.5};
constexpr std::array<double, 4> kBaselineCdclSecUnsatMs = {0.5, 3.4, 4.1, 129.5};

struct Curves {
  std::array<double, 4> sat_ms{};
  std::array<double, 4> unsat_ms{};
};

/// Times `runs` verify() calls on fresh analyzers and returns the mean
/// seconds; clears `parity` if any run's verdict differs from `resilient`.
double timed_verify(const core::ScadaScenario& scenario, const core::AnalyzerOptions& options,
                    Property property, int k, bool resilient, bool& parity) {
  util::RunStats stats;
  for (int i = 0; i < bench::kRunsPerInput; ++i) {
    core::ScadaAnalyzer analyzer(scenario, options);
    util::WallTimer timer;
    const core::VerificationResult r = analyzer.verify(property, core::ResiliencySpec::total(k));
    stats.add(timer.seconds());
    if (r.resilient() != resilient) parity = false;
  }
  return stats.mean();
}

std::string json_array(const std::array<double, 4>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += util::fmt_double(v[i], 3);
  }
  return out + "]";
}

}  // namespace

int main() {
  core::AnalyzerOptions z3_options;
  z3_options.solver.backend = smt::Backend::Z3;
  z3_options.minimize_threats = false;  // time the pure verification, not the
                                        // oracle-based threat minimization
  core::AnalyzerOptions cdcl_options = z3_options;
  cdcl_options.solver.backend = smt::Backend::Cdcl;

  bool parity = true;
  std::array<Curves, 2> z3_curves{}, cdcl_curves{};  // [observability, secured]
  const std::array<std::pair<Property, const char*>, 2> figures = {
      std::pair{Property::Observability, "Fig 5(a): k-resilient observability"},
      std::pair{Property::SecuredObservability, "Fig 5(b): k-resilient secured observability"}};

  for (std::size_t fig = 0; fig < figures.size(); ++fig) {
    const auto [property, figure] = figures[fig];
    const std::vector<std::string> header = {"bus size",     "IEDs",          "RTUs",
                                             "devices",      "boundary k*",   "sat time (s)",
                                             "unsat time (s)"};
    util::TextTable z3_table(header), cdcl_table(header);
    for (std::size_t size = 0; size < kBusSizes.size(); ++size) {
      const int buses = kBusSizes[size];
      util::RunStats z3_sat, z3_unsat, cdcl_sat, cdcl_unsat, boundary;
      std::size_t ieds = 0, rtus = 0;
      for (int input = 0; input < bench::kRandomInputs; ++input) {
        synth::SynthConfig config;
        config.buses = buses;
        config.measurement_fraction = 0.75;
        config.hierarchy_level = 2;
        // Keep nominal secured observability alive at scale: with ~3 hops
        // per path, a lower fraction leaves too few secured measurements.
        config.secured_hop_fraction = 0.95;
        config.seed = static_cast<std::uint64_t>(buses) * 100 + input;
        const core::ScadaScenario scenario = synth::generate_scenario(config);
        const synth::SynthStats stats = synth::stats_of(scenario);
        ieds = stats.ieds;
        rtus = stats.rtus;

        const int k_star = bench::resiliency_boundary(scenario, z3_options, property);
        const int cdcl_k_star = bench::resiliency_boundary(scenario, cdcl_options, property);
        if (cdcl_k_star != k_star) {
          std::fprintf(stderr, "%d buses, seed %llu: cdcl boundary %d, z3 boundary %d\n", buses,
                       static_cast<unsigned long long>(config.seed), cdcl_k_star, k_star);
          parity = false;
        }
        boundary.add(k_star);
        if (k_star >= 0) {
          z3_unsat.add(timed_verify(scenario, z3_options, property, k_star, true, parity));
          cdcl_unsat.add(timed_verify(scenario, cdcl_options, property, k_star, true, parity));
        }
        z3_sat.add(timed_verify(scenario, z3_options, property, k_star + 1, false, parity));
        cdcl_sat.add(timed_verify(scenario, cdcl_options, property, k_star + 1, false, parity));
      }
      z3_curves[fig].sat_ms[size] = 1e3 * z3_sat.mean();
      z3_curves[fig].unsat_ms[size] = 1e3 * z3_unsat.mean();
      cdcl_curves[fig].sat_ms[size] = 1e3 * cdcl_sat.mean();
      cdcl_curves[fig].unsat_ms[size] = 1e3 * cdcl_unsat.mean();
      const auto add_row = [&](util::TextTable& table, const util::RunStats& sat,
                               const util::RunStats& unsat) {
        table.add_row({std::to_string(buses), std::to_string(ieds), std::to_string(rtus),
                       std::to_string(ieds + rtus), util::fmt_double(boundary.mean(), 1),
                       util::fmt_double(sat.mean(), 4), util::fmt_double(unsat.mean(), 4)});
      };
      add_row(z3_table, z3_sat, z3_unsat);
      add_row(cdcl_table, cdcl_sat, cdcl_unsat);
    }
    bench::emit(std::string(figure) + " [z3]", z3_table);
    bench::emit(std::string(figure) + " [cdcl]", cdcl_table);
  }

  std::printf(
      "paper claims: execution time between linear and quadratic in bus size;\n"
      "unsat slower than sat; secured slightly costlier; <30 s at ~400 devices.\n");

  const char* path = "BENCH_fig5.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fprintf(
        f,
        "{\"bench\":\"fig5_scaling\",\"suite\":\"fig5(14,30,57,118 buses;%d grids x %d runs;"
        "boundary k* unsat, k*+1 sat)\",\"config\":\"minimize_threats off, certify off\","
        "\"buses\":[14,30,57,118],"
        "\"z3_observability_sat_ms\":%s,\"z3_observability_unsat_ms\":%s,"
        "\"z3_secured_sat_ms\":%s,\"z3_secured_unsat_ms\":%s,"
        "\"cdcl_observability_sat_ms\":%s,\"cdcl_observability_unsat_ms\":%s,"
        "\"cdcl_secured_sat_ms\":%s,\"cdcl_secured_unsat_ms\":%s,"
        "\"baseline_cdcl_observability_sat_ms\":%s,\"baseline_cdcl_observability_unsat_ms\":%s,"
        "\"baseline_cdcl_secured_sat_ms\":%s,\"baseline_cdcl_secured_unsat_ms\":%s,"
        "\"verdict_parity\":%s}\n",
        bench::kRandomInputs, bench::kRunsPerInput, json_array(z3_curves[0].sat_ms).c_str(),
        json_array(z3_curves[0].unsat_ms).c_str(), json_array(z3_curves[1].sat_ms).c_str(),
        json_array(z3_curves[1].unsat_ms).c_str(), json_array(cdcl_curves[0].sat_ms).c_str(),
        json_array(cdcl_curves[0].unsat_ms).c_str(), json_array(cdcl_curves[1].sat_ms).c_str(),
        json_array(cdcl_curves[1].unsat_ms).c_str(), json_array(kBaselineCdclObsSatMs).c_str(),
        json_array(kBaselineCdclObsUnsatMs).c_str(), json_array(kBaselineCdclSecSatMs).c_str(),
        json_array(kBaselineCdclSecUnsatMs).c_str(), parity ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", path);
  } else {
    std::fprintf(stderr, "bench_fig5_scaling: cannot write %s\n", path);
  }
  std::printf("verdict parity (cdcl vs z3): %s\n", parity ? "ok" : "VIOLATED");
  return parity ? 0 : 1;
}
