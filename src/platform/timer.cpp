#include "platform/timer.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "platform/envparse.hpp"

namespace xconv::platform {

BenchStats bench_stats(std::vector<double> samples) {
  BenchStats s;
  s.runs = static_cast<int>(samples.size());
  if (samples.empty()) return s;
  double sum = 0;
  for (double v : samples) sum += v;
  s.mean_s = sum / samples.size();
  double var = 0;
  for (double v : samples) var += (v - s.mean_s) * (v - s.mean_s);
  s.stddev_s = samples.size() > 1 ? std::sqrt(var / (samples.size() - 1)) : 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  s.min_s = samples.front();
  s.max_s = samples.back();
  s.median_s = samples.size() % 2 ? samples[mid]
                                   : 0.5 * (samples[mid - 1] + samples[mid]);
  // statistics.quantiles(samples, n=4), method='exclusive', in the same
  // integer arithmetic.
  const long n = static_cast<long>(samples.size()), m = n + 1;
  auto quartile = [&](long i) {
    if (n < 2) return samples.front();
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const double delta = static_cast<double>(i * m - j * 4);
    return (samples[j - 1] * (4 - delta) + samples[j] * delta) / 4;
  };
  s.q1_s = quartile(1);
  s.q3_s = quartile(3);
  return s;
}

BenchStats time_runs(const std::function<void()>& fn, int runs, int warmup) {
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<double> samples;
  samples.reserve(runs);
  for (int i = 0; i < runs; ++i) {
    Timer t;
    fn();
    samples.push_back(t.seconds());
  }
  return bench_stats(std::move(samples));
}

// Lenient by contract (pinned in test_platform EnvKnobs): a malformed or
// non-positive bench knob falls back instead of aborting a bench run.
int bench_runs(int fallback) {
  return env::positive_int_or("XCONV_BENCH_RUNS", fallback);
}
int bench_minibatch(int fallback) {
  return env::positive_int_or("XCONV_MB", fallback);
}

}  // namespace xconv::platform
