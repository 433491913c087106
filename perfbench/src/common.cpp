#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "core/plan.hpp"
#include "kernels/kernel_registry.hpp"

namespace perfbench {

void Checks::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::logic_error("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::pair<double, double> quartiles(std::vector<double> v) {
  if (v.size() < 2) {
    const double m = median(v);
    return {m, m};
  }
  std::sort(v.begin(), v.end());
  // statistics.quantiles(v, n=4), method='exclusive', in exact integer math.
  const long ld = static_cast<long>(v.size()), m = ld + 1;
  auto at = [&](long i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const double delta = static_cast<double>(i * m - j * 4);
    return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
  };
  return {at(1), at(3)};
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      const double kib = std::strtod(line.c_str() + 6, nullptr);
      return kib / 1024.0;
    }
  }
  throw std::runtime_error("peak_rss_mb: VmHWM not found in /proc/self/status");
}

void fill_uniform(float* p, std::size_t n, std::uint64_t seed) {
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ull + 0x632BE59BD9B4E019ull;
  for (std::size_t i = 0; i < n; ++i) {
    s += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    // 24 random mantissa bits -> [0, 1), then to [-1, 1).
    p[i] = static_cast<float>(z >> 40) * (2.0f / 16777216.0f) - 1.0f;
  }
}

int bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

CacheMisses CacheMisses::now() {
  return {xconv::kernels::KernelRegistry::instance().stats().misses,
          xconv::core::PlanCache::instance().stats().misses};
}

void report_cache_counters(Result& r, const CacheMisses& start,
                           const SteadyMisses& steady, bool trace) {
  r.checks.check(steady.total.kernels == 0 && steady.total.plans == 0,
                 "no KernelRegistry/PlanCache misses inside timed regions "
                 "(kernels " + std::to_string(steady.total.kernels) +
                     ", plans " + std::to_string(steady.total.plans) + ")");
  if (!trace) return;
  const CacheMisses setup = CacheMisses::now() - start - steady.total;
  r.add("kernels.registry.misses_setup", static_cast<double>(setup.kernels),
        "count");
  r.add("kernels.registry.size",
        static_cast<double>(xconv::kernels::KernelRegistry::instance().size()),
        "count");
  r.add("core.plan_cache.misses_setup", static_cast<double>(setup.plans),
        "count");
  r.add("kernels.registry.misses_steady",
        static_cast<double>(steady.total.kernels), "count");
}

}  // namespace perfbench
