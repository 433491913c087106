#include "platform/timer.hpp"

#include <algorithm>
#include <cmath>

#include "platform/envparse.hpp"

namespace xconv::platform {

BenchStats time_runs(const std::function<void()>& fn, int runs, int warmup) {
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<double> samples;
  samples.reserve(runs);
  for (int i = 0; i < runs; ++i) {
    Timer t;
    fn();
    samples.push_back(t.seconds());
  }
  BenchStats s;
  s.runs = runs;
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
  return s;
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
