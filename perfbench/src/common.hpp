// Shared plumbing of the perfbench driver: command line, clocks, sample
// statistics, the correctness gate and the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "scada/core/spec.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs and a short loop; every output is still checked.
  bool smoke = false;
  /// Directory the traced run writes its spans to.
  std::string out_dir = ".";
};

[[nodiscard]] Args parse_args(int argc, char** argv);

/// Deterministic per-purpose random stream derived from the run seed.
[[nodiscard]] std::mt19937_64 rng_for(std::uint64_t seed, std::uint64_t stream);
/// A 31-bit synth seed drawn from `rng` (the service protocol reads ints).
[[nodiscard]] std::uint64_t draw_seed(std::mt19937_64& rng);

/// Runs fn(0..n-1) on up to four threads (reference answers and output
/// checks, outside the timed region). Rethrows the first exception.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

/// Nearest-rank percentile (q in [0,1]) of an unsorted sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Peak resident set size of this process in MB (VmHWM).
[[nodiscard]] double peak_rss_mb();
/// Releases freed heap and restarts the VmHWM high-water mark, so the peak
/// covers only the measured phase (references and set-up excluded).
void reset_peak_rss();

/// Sent / succeeded / failed bookkeeping of every checked output. A request
/// fails when its verdict is wrong or Unknown, when it threw, or when the
/// service answered with an error.
class Gate {
 public:
  void pass() { ++sent_; }
  void fail(const std::string& what);
  /// Records one request whose output was checked; `ok` false counts it failed.
  void check(bool ok, const std::string& what) { ok ? pass() : fail(what); }
  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] double error_rate() const noexcept {
    return sent_ == 0 ? 0.0 : static_cast<double>(failed_) / static_cast<double>(sent_);
  }

 private:
  std::uint64_t sent_ = 0;
  std::uint64_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main() for the result line.
struct RunResult {
  Gate gate;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
};

/// Prints "name: value unit" lines for humans.
void print_metrics(const std::vector<Metric>& metrics);
/// The final stdout line: {"correct":…,"attempted":…,"failed":…,"metrics":{…}}.
void print_result_line(const RunResult& result);
/// nproc, build type, compiler and source revision of this binary.
void print_environment();

/// Set-up summary line: the median of the timed set-ups and their range.
void print_setup(const std::vector<double>& setup_s);

/// Latency summary line: p50/p90 with the sample count and how many samples
/// lie beyond p90 (the benchmark wants at least ten).
void print_latency(const std::string& label, const std::vector<double>& latencies_ms);

[[nodiscard]] const char* property_key(scada::core::Property p) noexcept;

}  // namespace perfbench
