// rn50_mn_int16: MultiNodeTrainer with 2 in-process ranks, each ResNet-50
// at 56 px (1000 classes, so the gradient is ResNet-50-sized), minibatch 2
// and 1 compute thread, in overlap mode with the int16 codec, one comm
// thread and no simulated wire delay: 3 busy threads. It is the only
// workload that loads mlsl, and with 1 thread per rank it bypasses
// multi-core partitioning changes.
//
// Untraced: MultiNodeTrainer::train(1) steps, each followed by one rank-0
// inference batch and one sweep of rank 0's ConvLayers; medians. Traced:
// per-step MultiNodeStats and the int16 codec timed on the ResNet-50
// gradient.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "graph_walk.hpp"
#include "gxm/trainer.hpp"
#include "mlsl/codec.hpp"
#include "mlsl/scaling.hpp"
#include "peak_probe.hpp"
#include "tensor/norms.hpp"
#include "topo/resnet50.hpp"

namespace perfbench {

namespace {
namespace gxm = xconv::gxm;
namespace mlsl = xconv::mlsl;

constexpr int kRanks = 2, kMinibatch = 2, kImage = 56, kClasses = 1000;
/// decode(encode(x)) + residual must rebuild x to this l2-relative error.
constexpr double kCodecTol = 1e-6;

gxm::Solver solver() {
  gxm::Solver s;
  s.lr = 0.001f;
  return s;
}

/// Moves the calling thread over the CPUs it may run on, one per call, and
/// back to its own set when destroyed. Rank 0's inference and conv sweeps
/// run on this single thread, whose speed depends on the CPU it sits on (on
/// a shared host a busy hyperthread sibling slows it for tens of seconds);
/// visiting every CPU keeps one slow CPU from setting the medians.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof own_, &own_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &own_)) cpus_.push_back(c);
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof own_, &own_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[i_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t own_{};
  std::vector<int> cpus_;
  std::size_t i_ = 0;
};

/// Median seconds of `fn` over `reps` calls, `prep` run untimed before each.
template <class Prep, class Fn>
double median_call_s(int reps, Prep prep, Fn fn, Tracer* tr, const char* name) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    prep();
    Tracer::Scope sc(tr, name, "mlsl.codec", i);
    const auto t0 = Clock::now();
    fn();
    s.push_back(seconds_since(t0));
  }
  return median(s);
}
}  // namespace

void run_rn50_mn_int16(const Args& a, Result& r, Tracer* tr) {
  gxm::GraphOptions go;
  go.threads = 1;
  go.seed = a.seed;
  mlsl::MultiNodeOptions mo;
  mo.mode = mlsl::SyncMode::kOverlap;
  mo.comm.codec = mlsl::Codec::kInt16;
  mo.comm.comm_threads = 1;
  mo.comm.wire_gbs = 0;

  const CacheMisses before_setup = CacheMisses::now();
  const auto t0 = Clock::now();
  mlsl::MultiNodeTrainer mt(
      gxm::parse_topology(xconv::topo::resnet50_topology(kMinibatch, kImage, kClasses)),
      kRanks, go, mo);
  r.setup_s = seconds_since(t0);
  if (a.setup_only) return;

  const gxm::Solver s = solver();
  r.checks.check(std::isfinite(mt.train(1, s).last_loss), "rn50_mn_int16 warm-up loss finite");
  SteadyMisses steady;

  // Untraced, rank 0's inference batches and conv sweeps take turns with
  // the training steps so every metric samples the whole run.
  gxm::Graph& g0 = mt.rank_graph(0);
  gxm::Trainer inf(g0, s);
  GraphConvSweep convs(g0);
  std::vector<double> infer_s;
  if (tr == nullptr) {
    r.checks.check(std::isfinite(inf.inference(1).last_loss), "rn50_mn_int16 warm-up inference loss finite");
    convs.run(false);
  }
  std::vector<mlsl::MultiNodeStats> steps;
  {
    CpuRotation rotation;
    const CacheMisses before = CacheMisses::now();
    const Budget b((tr != nullptr ? 0.6 : 1.0) * a.seconds);
    while (b.more(steps.size(), 4)) {
      {
        Tracer::Scope sc(tr, "step", "mlsl.step", static_cast<int>(steps.size()));
        steps.push_back(mt.train(1, s));
      }
      if (tr != nullptr) continue;
      rotation.next();
      const gxm::TrainStats st = inf.inference(1);
      infer_s.push_back(st.seconds);
      r.checks.check(std::isfinite(st.last_loss), "rn50_mn_int16 inference loss finite");
      convs.run();
    }
    steady.add(before);
  }
  std::vector<double> img_s, exposed_ms, exposed_share;
  for (const auto& st : steps) {
    r.checks.check(std::isfinite(st.last_loss), "rn50_mn_int16 step loss finite");
    img_s.push_back(st.images_per_second);
    exposed_ms.push_back(1e3 * st.exposed_comm_seconds);
    exposed_share.push_back(st.exposed_comm_seconds / st.seconds);
  }

  // Replicas must hold bit-identical parameters after synchronous steps.
  const std::size_t n = mt.rank_graph(0).grad_elems();
  std::vector<float> p0(n), p1(n);
  mt.rank_graph(0).export_params(p0.data());
  mt.rank_graph(1).export_params(p1.data());
  r.checks.check(std::memcmp(p0.data(), p1.data(), n * sizeof(float)) == 0,
                 "rn50_mn_int16 replicas bitwise in sync");
  std::fprintf(stderr, "rn50_mn_int16: %zu timed steps, median %.2f img/s, exposed comm %.1f ms (%.1f %%), %zu params\n",
               steps.size(), median(img_s), median(exposed_ms), 100 * median(exposed_share), n);

  if (tr == nullptr) {
    r.add("train_img_s", median(img_s), "img/s");
    r.add("infer_img_s", kMinibatch / median(infer_s), "img/s");
    r.add("conv_fwd_gflops", convs.gflops(0), "GFLOPS");
    r.add("conv_bwd_gflops", convs.gflops(1), "GFLOPS");
    r.add("conv_upd_gflops", convs.gflops(2), "GFLOPS");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    report_cache_counters(r, before_setup, steady, false);
    return;
  }

  const mlsl::MultiNodeStats& last = steps.back();
  r.add("mlsl.exposed_comm_ms", median(exposed_ms), "ms");
  r.add("mlsl.exposed_comm_share", median(exposed_share), "share");
  r.add("mlsl.wire_bytes_per_rank", static_cast<double>(last.wire_bytes_per_rank), "B");
  r.add("mlsl.compression_ratio", last.compression_ratio, "x");
  r.add("mlsl.bucket_count", static_cast<double>(last.bucket_count), "count");

  // The int16 codec on the ResNet-50 gradient of the last step.
  const mlsl::PayloadCodec& codec = mlsl::get_codec(mlsl::Codec::kInt16);
  std::vector<float> grad(n), residual(n), dst(n);
  mt.rank_graph(0).export_grads(grad.data());
  std::vector<std::uint8_t> wire(codec.max_encoded_bytes(n));
  std::size_t bytes = 0;
  const CacheMisses before = CacheMisses::now();
  const double enc_s = median_call_s(
      7, [&] { std::fill(residual.begin(), residual.end(), 0.0f); },
      [&] { bytes = codec.encode(grad.data(), residual.data(), n, wire.data()); }, tr,
      "PayloadCodec::encode");
  const double dec_s = median_call_s(
      7, [&] { std::fill(dst.begin(), dst.end(), 0.0f); },
      [&] { codec.decode_accumulate(wire.data(), bytes, dst.data(), n); }, tr,
      "PayloadCodec::decode_accumulate");
  steady.add(before);
  for (std::size_t i = 0; i < n; ++i) dst[i] += residual[i];
  const double err = xconv::tensor::compare(grad.data(), dst.data(), n).l2_rel;
  r.checks.check(err <= kCodecTol, "int16 decode + residual rebuilds the gradient: l2_rel " +
                                       std::to_string(err));
  const double gb = static_cast<double>(n) * sizeof(float) / 1e9;
  r.add("mlsl.codec.int16.encode_gbs", gb / enc_s, "GB/s");
  r.add("mlsl.codec.int16.decode_acc_gbs", gb / dec_s, "GB/s");

  report_peak(r, measure_peak_gflops_core(9));
  report_cache_counters(r, before_setup, steady, true);
}

}  // namespace perfbench
