#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <malloc.h>
#include <exception>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace perfbench {
Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--out-dir") {
      args.out_dir = value();
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (args.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  return args;
}

std::mt19937_64 rng_for(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of (seed, stream): independent streams per purpose.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + (stream + 1) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return std::mt19937_64(z ^ (z >> 31));
}

std::uint64_t draw_seed(std::mt19937_64& rng) { return rng() & 0x7fffffffULL; }

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  const std::size_t workers =
      std::min<std::size_t>({n, 4, std::max(1u, std::thread::hardware_concurrency())});
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mutex;
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) {
        try {
          fn(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(index, v.size() - 1)];
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

void reset_peak_rss() {
  // Hand memory freed by the reference phase back to the kernel first, so
  // the new peak starts from what the measured phase holds.
  malloc_trim(0);
  // "5" resets the peak RSS counter (Linux >= 4.0).
  std::ofstream clear("/proc/self/clear_refs");
  if (clear) clear << "5";
}

void Gate::fail(const std::string& what) {
  ++sent_;
  ++failed_;
  if (failed_ <= 10) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_result_line(const RunResult& result) {
  std::string line = "{\"correct\": ";
  // A run that checked no output is not a correct run.
  line += result.gate.failed() == 0 && result.gate.sent() > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.gate.sent());
  line += ", \"failed\": " + std::to_string(result.gate.failed());
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void print_environment() {
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  std::printf("environment: nproc=%u build=%s compiler=\"%s\" git_sha=%s\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              sha != nullptr && *sha != '\0' ? sha : "unknown");
}

void print_setup(const std::vector<double>& setup_s) {
  std::printf("setup: median %.4f s of %zu set-ups (min %.4f s, max %.4f s)\n", median(setup_s),
              setup_s.size(), percentile(setup_s, 0.0), percentile(setup_s, 1.0));
}

void print_latency(const std::string& label, const std::vector<double>& latencies_ms) {
  const double p90 = percentile(latencies_ms, 0.9);
  const auto beyond = static_cast<std::size_t>(
      std::count_if(latencies_ms.begin(), latencies_ms.end(), [&](double x) { return x > p90; }));
  std::printf("%s: n=%zu p50=%.3f ms p90=%.3f ms max=%.3f ms samples_beyond_p90=%zu%s\n",
              label.c_str(), latencies_ms.size(), percentile(latencies_ms, 0.5), p90,
              percentile(latencies_ms, 1.0), beyond, beyond < 10 ? " (fewer than 10)" : "");
}

const char* property_key(scada::core::Property p) noexcept {
  switch (p) {
    case scada::core::Property::Observability: return "observability";
    case scada::core::Property::SecuredObservability: return "secured_observability";
    case scada::core::Property::BadDataDetectability: return "bad_data_detectability";
  }
  return "observability";
}

}  // namespace perfbench
