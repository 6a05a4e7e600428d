// Minimum-cost hardening synthesis front end: given a case (the built-in
// §IV case study or a Table-II case file), compute the security index of a
// property and/or the cheapest set of channel upgrades that makes the
// scenario (k1,k2)/k-resilient, printing one JSON document per result.
//
//   $ ./scada_harden --property secured_observability --k 1
//   {"security_index":{...}}
//   {"hardening":{...}}
//
// The spec defaults to the case file's [spec] section when present, else
// (k1,k2) = (1,1). --index-only / --harden-only restrict the output.
//
// Exit codes: 0 on success (even when the pool cannot achieve the spec — the
// JSON says so), 2 when the optimization was interrupted (--timeout-ms), and
// 1 on usage or input errors.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "scada/core/case_study.hpp"
#include "scada/core/optimize.hpp"
#include "scada/io/case_format.hpp"
#include "scada/io/json.hpp"
#include "scada/util/error.hpp"
#include "scada/util/strings.hpp"

namespace {

using namespace scada;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--case FILE | --fig4] [--property P] [--k N | --k1 N --k2 N] [--r N]\n"
      "          [--strategy linear|core-guided] [--backend cdcl|z3] [--certify]\n"
      "          [--timeout-ms N] [--index-only | --harden-only]\n"
      "  --case FILE    read a Table-II case file (default: built-in Fig. 3 case study)\n"
      "  --fig4         use the built-in Fig. 4 topology variant\n"
      "  --property P   observability | secured_observability | bad_data (default\n"
      "                 secured_observability)\n"
      "  --k/--k1/--k2  resiliency spec for the hardening target (default: the case\n"
      "                 file's [spec], else k1=1 k2=1); --r is the bad-data budget\n"
      "  --strategy S   MaxSAT strategy: linear (default) or core-guided\n"
      "  --backend B    solver backend: cdcl (default) or z3\n"
      "  --certify      require DRAT-checked certificates (cdcl backend only)\n"
      "  --timeout-ms N cooperative interrupt after N ms (exit 2, partial results)\n"
      "  --index-only   only compute the security index\n"
      "  --harden-only  only synthesize the minimum-cost hardening\n",
      argv0);
  return 1;
}

/// Sets `flag` after `ms` milliseconds unless destroyed first.
class Watchdog {
 public:
  Watchdog(std::atomic<bool>& flag, long long ms)
      : thread_([this, &flag, ms] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!cv_.wait_for(lock, std::chrono::milliseconds(ms), [this] { return disarmed_; })) {
            flag.store(true, std::memory_order_relaxed);
          }
        }) {}

  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      disarmed_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool disarmed_ = false;
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  const char* case_path = nullptr;
  bool fig4 = false;
  core::Property property = core::Property::SecuredObservability;
  std::optional<int> k_total;
  std::optional<int> k_ied;
  std::optional<int> k_rtu;
  int bad_data_r = 1;
  core::OptimizerOptions options;
  long long timeout_ms = 0;
  bool index_only = false;
  bool harden_only = false;

  const auto next_token = [&](int& i) { return i + 1 < argc ? argv[++i] : nullptr; };
  const auto next_int = [&](const char* flag, int& i) {
    return static_cast<int>(util::cli_long_in(flag, next_token(i), 0, 1 << 20));
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--case") == 0) {
      case_path = next_token(i);
      if (case_path == nullptr) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--fig4") == 0) {
      fig4 = true;
    } else if (std::strcmp(argv[i], "--property") == 0) {
      const char* p = next_token(i);
      if (p == nullptr) return usage(argv[0]);
      if (std::strcmp(p, "observability") == 0) {
        property = core::Property::Observability;
      } else if (std::strcmp(p, "secured_observability") == 0) {
        property = core::Property::SecuredObservability;
      } else if (std::strcmp(p, "bad_data") == 0) {
        property = core::Property::BadDataDetectability;
      } else {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--k") == 0) {
      k_total = next_int("--k", i);
    } else if (std::strcmp(argv[i], "--k1") == 0) {
      k_ied = next_int("--k1", i);
    } else if (std::strcmp(argv[i], "--k2") == 0) {
      k_rtu = next_int("--k2", i);
    } else if (std::strcmp(argv[i], "--r") == 0) {
      bad_data_r = next_int("--r", i);
    } else if (std::strcmp(argv[i], "--strategy") == 0) {
      const char* s = next_token(i);
      if (s == nullptr) return usage(argv[0]);
      if (std::strcmp(s, "linear") == 0) {
        options.strategy = smt::MaxSatStrategy::Linear;
      } else if (std::strcmp(s, "core-guided") == 0) {
        options.strategy = smt::MaxSatStrategy::CoreGuided;
      } else {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--backend") == 0) {
      const char* b = next_token(i);
      if (b == nullptr) return usage(argv[0]);
      if (std::strcmp(b, "cdcl") == 0) {
        options.analyzer.solver.backend = smt::Backend::Cdcl;
      } else if (std::strcmp(b, "z3") == 0) {
        options.analyzer.solver.backend = smt::Backend::Z3;
      } else {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--certify") == 0) {
      options.analyzer.certify = true;
      options.analyzer.solver.certify = true;
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0) {
      timeout_ms =
          util::cli_long_in("--timeout-ms", next_token(i), 1, std::numeric_limits<long long>::max());
    } else if (std::strcmp(argv[i], "--index-only") == 0) {
      index_only = true;
    } else if (std::strcmp(argv[i], "--harden-only") == 0) {
      harden_only = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (index_only && harden_only) return usage(argv[0]);
  if (case_path != nullptr && fig4) return usage(argv[0]);

  try {
    std::optional<core::ResiliencySpec> file_spec;
    const core::ScadaScenario scenario = [&]() -> core::ScadaScenario {
      if (case_path != nullptr) {
        io::CaseFile file = io::read_case_file(case_path);
        file_spec = file.spec;
        return std::move(file.scenario);
      }
      return core::make_case_study(fig4 ? core::CaseStudyTopology::Fig4
                                        : core::CaseStudyTopology::Fig3);
    }();

    core::ResiliencySpec spec = core::ResiliencySpec::per_type(1, 1, bad_data_r);
    if (file_spec.has_value()) spec = *file_spec;
    if (k_total.has_value()) {
      spec = core::ResiliencySpec::total(*k_total, bad_data_r);
    } else if (k_ied.has_value() || k_rtu.has_value()) {
      spec = core::ResiliencySpec::per_type(k_ied.value_or(0), k_rtu.value_or(0), bad_data_r);
    }

    std::atomic<bool> interrupt{false};
    std::unique_ptr<Watchdog> watchdog;
    if (timeout_ms > 0) {
      options.analyzer.interrupt = &interrupt;
      watchdog = std::make_unique<Watchdog>(interrupt, timeout_ms);
    }

    core::Optimizer optimizer(scenario, options);
    bool interrupted = false;
    if (!harden_only) {
      const core::SecurityIndexResult index = optimizer.security_index(property, spec.r);
      std::printf("{\"security_index\":%s}\n", io::security_index_to_json(index).c_str());
      interrupted = interrupted || !index.completed;
    }
    if (!index_only) {
      const core::MinCostResult hardening = optimizer.min_cost_hardening(property, spec);
      std::printf("{\"hardening\":%s}\n", io::min_cost_to_json(hardening).c_str());
      interrupted = interrupted || !hardening.completed;
    }
    return interrupted ? 2 : 0;
  } catch (const ScadaError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
