// Shared pieces of the benchmark binary: the run's arguments, its result
// (metrics plus counted correctness checks), robust statistics, input
// generation and the kernel/plan cache counters every workload reports.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer;

struct Args {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10;   ///< measurement budget of the run
  bool trace = false;    ///< traced run: per-layer metrics instead of e2e
  bool setup_only = false;
  std::string trace_out;  ///< Chrome trace path (traced runs)
};

/// Checked operations of one run; `failed / attempted` is the run's
/// failure share. Each failure is described on stderr.
struct Checks {
  long attempted = 0;
  long failed = 0;
  void check(bool ok, const std::string& what);
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  Checks checks;
  double setup_s = 0;  ///< this process's own set-up time
  std::vector<Metric> metrics;
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Measurement budget: a phase runs `min_reps` repetitions and then keeps
/// going until its share of the run's seconds is spent.
class Budget {
 public:
  explicit Budget(double seconds) : end_(Clock::now() + to_dur(seconds)) {}
  bool more(std::size_t done, std::size_t min_reps) const {
    return done < min_reps || Clock::now() < end_;
  }

 private:
  static Clock::duration to_dur(double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  }
  Clock::time_point end_;
};

double median(std::vector<double> v);
/// First and third quartile (Python statistics.quantiles(n=4), exclusive).
std::pair<double, double> quartiles(std::vector<double> v);

/// Peak resident set of this process so far (VmHWM), in MiB.
double peak_rss_mb();

/// Deterministic uniform [-1, 1) fill from a 64-bit seed (splitmix64).
void fill_uniform(float* p, std::size_t n, std::uint64_t seed);

/// Compute threads for the multi-threaded workloads: 4, the paper's
/// all-cores operating point on the reference host, never above nproc.
int bench_threads();

/// KernelRegistry and PlanCache miss counters (process-global caches).
struct CacheMisses {
  std::uint64_t kernels = 0;
  std::uint64_t plans = 0;
  static CacheMisses now();
  CacheMisses operator-(const CacheMisses& o) const {
    return {kernels - o.kernels, plans - o.plans};
  }
};

/// Accumulates cache misses over the timed regions of a run, which must
/// see none: every kernel is JIT'd and every plan made at set-up.
struct SteadyMisses {
  CacheMisses total;
  void add(const CacheMisses& before) {
    const CacheMisses d = CacheMisses::now() - before;
    total.kernels += d.kernels;
    total.plans += d.plans;
  }
};

/// Checks that the timed regions saw no cache misses and, traced, reports
/// kernels.registry.misses_setup / core.plan_cache.misses_setup (misses
/// since `start` outside the timed regions: construction and warm-up
/// calls), kernels.registry.size and kernels.registry.misses_steady.
void report_cache_counters(Result& r, const CacheMisses& start,
                           const SteadyMisses& steady, bool trace);

// Workload entry points (one translation unit each).
void run_conv_layers(const Args& a, Result& r, Tracer* tr);
void run_rn50_gxm(const Args& a, Result& r, Tracer* tr);
void run_rn50_mn_int16(const Args& a, Result& r, Tracer* tr);

}  // namespace perfbench
