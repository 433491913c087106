// Wall-clock timing and simple benchmark statistics used by the bench
// harness. The paper reports averages over 20 runs with ~3% run-to-run
// variation; `BenchStats` records mean / median / min / stddev / quartiles so
// benches can report the same quantities (and a median that one slow run
// cannot skew).
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <vector>

namespace xconv::platform {

class Timer {
 public:
  Timer() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

struct BenchStats {
  double mean_s = 0;
  double median_s = 0;
  double min_s = 0;
  double max_s = 0;
  double stddev_s = 0;
  /// First and third quartile, as Python's statistics.quantiles(n=4)
  /// computes them (its default 'exclusive' method; a single sample is its
  /// own quartiles).
  double q1_s = 0, q3_s = 0;
  int runs = 0;

  double gflops(std::size_t flops) const {
    return mean_s > 0 ? static_cast<double>(flops) / mean_s / 1e9 : 0.0;
  }
  double median_gflops(std::size_t flops) const {
    return median_s > 0 ? static_cast<double>(flops) / median_s / 1e9 : 0.0;
  }
  double best_gflops(std::size_t flops) const {
    return min_s > 0 ? static_cast<double>(flops) / min_s / 1e9 : 0.0;
  }
  /// Coefficient of variation (the paper's "run-to-run variation").
  double cv() const { return mean_s > 0 ? stddev_s / mean_s : 0.0; }
  /// Interquartile range as a share of the median: the spread a change
  /// must beat before one row can show it.
  double iqr_share() const {
    return median_s > 0 ? (q3_s - q1_s) / median_s : 0.0;
  }
};

/// Statistics of measured run times (seconds, any order).
BenchStats bench_stats(std::vector<double> samples_s);

/// Run `fn` `warmup` times unmeasured, then `runs` times measured.
BenchStats time_runs(const std::function<void()>& fn, int runs,
                     int warmup = 1);

/// Number of measured repetitions benches should use; honors the
/// `XCONV_BENCH_RUNS` environment variable (default `fallback`).
int bench_runs(int fallback = 3);

/// Minibatch size benches should use; honors `XCONV_MB` (default `fallback`).
int bench_minibatch(int fallback = 1);

}  // namespace xconv::platform
