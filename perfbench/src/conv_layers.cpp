// conv_layers: every ResNet-50 Table I layer and every Inception-v3 conv
// row at minibatch 4, default plan, forward/backward/update on each. Runs
// nothing but core/kernels/jit, so kernel, blocking and partitioning changes
// show fully here while GxM and comm changes must show none.
//
// Every layer's tensors are made from the seed; each pass runs once and is
// checked against baselines::naive_* on a seed-chosen slice (one image and
// one 16-channel block of the output side; for the update a 16x16 block of
// dW over the whole minibatch) outside the timed region. Then sweeps over
// all layers (forward, backward, update of each, every call timed) repeat
// until the run's time is spent, and each pass of each layer reports its
// median call: every layer is sampled across the whole run, so a slow spell
// of the host shorter than half the run does not move it. The traced run
// repeats the sweeps with twins built for 1 thread (the 4-thread speed-up).
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/naive_conv.hpp"
#include "common.hpp"
#include "core/conv_layer.hpp"
#include "peak_probe.hpp"
#include "tensor/norms.hpp"
#include "tensor/transform.hpp"
#include "topo/inception_v3.hpp"
#include "topo/resnet50.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

namespace xc = xconv::core;
namespace xt = xconv::tensor;

constexpr int kMinibatch = 4;
constexpr std::size_t kMinSweeps = 5;
/// l2-relative error bound of a checked slice against the naive loops.
constexpr double kConvTol = 1e-4;
/// A pass may read at most this far above 100 % of the probed peak before
/// the probe (or the FLOP count) is reported as wrong.
constexpr double kPeakTolPct = 10.0;

enum Pass { kFwd, kBwd, kUpd, kPasses };
const char* const kPassName[kPasses] = {"fwd", "bwd", "upd"};
const char* const kCallName[kPasses] = {
    "ConvLayer::forward", "ConvLayer::backward", "ConvLayer::update"};

/// One layer's operands: inputs filled from the seed, outputs written by
/// the passes (forward -> out, backward -> din, update -> dwt).
struct Tensors {
  xt::ActTensor in, out, din, dout;
  xt::WtTensor wt, dwt;
};

struct Case {
  std::string name, table;  ///< table: "rn50" | "incv3"
  xc::ConvParams p;
  std::unique_ptr<xc::ConvLayer> layer;     ///< bench_threads() threads
  std::unique_ptr<xc::ConvLayer> layer_1t;  ///< traced run only
  Tensors t;
  std::vector<double> ms[kPasses], ms_1t[kPasses];  ///< per-call times
};

std::vector<Case> make_cases() {
  std::vector<Case> cases;
  for (const auto& l : xconv::topo::resnet50_table1()) {
    Case c;
    char buf[32];
    std::snprintf(buf, sizeof buf, "rn50_L%02d", l.id);
    c.name = buf;
    c.table = "rn50";
    c.p = xconv::topo::table1_params(l, kMinibatch);
    cases.push_back(std::move(c));
  }
  int i = 0;
  for (const auto& l : xconv::topo::inception_v3_convs()) {
    Case c;
    c.name = "incv3_" + std::to_string(i++) + "_" + l.block;
    c.table = "incv3";
    c.p = xconv::topo::inception_params(l, kMinibatch);
    cases.push_back(std::move(c));
  }
  return cases;
}

std::unique_ptr<xc::ConvLayer> build(const xc::ConvParams& p, int threads) {
  xc::ConvOptions o;
  o.threads = threads;
  return std::make_unique<xc::ConvLayer>(p, o);
}

Tensors make_tensors(const xc::ConvLayer& L, std::uint64_t seed) {
  const xc::ConvParams& p = L.params();
  Tensors t{L.make_input(), L.make_output(), L.make_input(),
            L.make_output(), L.make_weights(), L.make_weights()};
  std::vector<float> v(p.input_elems());
  fill_uniform(v.data(), v.size(), seed * 3 + 0);
  xt::nchw_to_blocked(v.data(), t.in);
  v.assign(p.output_elems(), 0.0f);
  fill_uniform(v.data(), v.size(), seed * 3 + 1);
  xt::nchw_to_blocked(v.data(), t.dout);
  v.assign(p.weight_elems(), 0.0f);
  fill_uniform(v.data(), v.size(), seed * 3 + 2);
  for (float& x : v) x *= 0.1f;
  xt::kcrs_to_blocked_fwd(v.data(), p.K, p.C, t.wt);
  return t;
}

/// l2-relative error per pass of the layer's results in `t` against the
/// naive loops on a seed-chosen slice. The naive loops are single-threaded,
/// so each slice is cut into `parts` channel ranges computed in parallel.
std::array<double, kPasses> check_slice(const xc::ConvParams& p, const Tensors& t,
                                        std::uint64_t seed, int parts) {
  const int P = p.P(), Q = p.Q(), RS = p.R * p.S;
  const std::size_t HW = 1ull * p.H * p.W, PQ = 1ull * P * Q;
  std::uint64_t s = seed;
  auto pick = [&](int bound) {
    float r = 0;
    fill_uniform(&r, 1, s++);
    return std::min(bound - 1, static_cast<int>((r + 1.0f) * 0.5f * bound));
  };
  const int n0 = pick(p.N);
  const int k0 = 16 * pick((p.K + 15) / 16), kc = std::min(16, p.K - k0);
  const int c0 = 16 * pick((p.C + 15) / 16), cc = std::min(16, p.C - c0);

  std::vector<float> in(p.input_elems()), out(p.output_elems()),
      din(p.input_elems()), dout(p.output_elems()), wt(p.weight_elems()),
      dwt(p.weight_elems());
  xt::blocked_to_nchw(t.in, in.data());
  xt::blocked_to_nchw(t.out, out.data());
  xt::blocked_to_nchw(t.din, din.data());
  xt::blocked_to_nchw(t.dout, dout.data());
  xt::blocked_fwd_to_kcrs(t.wt, p.K, p.C, wt.data());
  xt::blocked_dw_to_kcrs(t.dwt, p.K, p.C, dwt.data());

  // Reference slices, in the layer's NCHW / KCRS order.
  std::vector<float> ref_f(1ull * kc * PQ), ref_b(1ull * cc * HW),
      ref_u(1ull * kc * cc * RS);
  auto part = [&](int i, int extent, int* lo) {
    *lo = extent * i / parts;
    return extent * (i + 1) / parts - *lo;
  };
#pragma omp parallel for schedule(dynamic) num_threads(parts)
  for (int task = 0; task < kPasses * parts; ++task) {
    const int pass = task / parts, i = task % parts;
    int lo = 0;
    xc::ConvParams q = p;
    if (pass == kFwd) {  // image n0, output channels k0 + [lo, lo + n)
      q.N = 1;
      q.K = part(i, kc, &lo);
      if (q.K == 0) continue;
      xconv::baselines::naive_forward(q, in.data() + n0 * p.C * HW,
                                       wt.data() + 1ull * (k0 + lo) * p.C * RS,
                                       ref_f.data() + lo * PQ);
    } else if (pass == kBwd) {  // image n0, input channels c0 + [lo, lo + n)
      q.N = 1;
      q.C = part(i, cc, &lo);
      if (q.C == 0) continue;
      std::vector<float> w(1ull * p.K * q.C * RS);
      for (int k = 0; k < p.K; ++k)
        std::copy_n(wt.data() + (1ull * k * p.C + c0 + lo) * RS, 1ull * q.C * RS,
                    w.data() + 1ull * k * q.C * RS);
      xconv::baselines::naive_backward(q, dout.data() + n0 * p.K * PQ, w.data(),
                                       ref_b.data() + lo * HW);
    } else {  // dW[k0 + [lo, lo + n)][c0, c0 + cc), whole minibatch
      q.K = part(i, kc, &lo);
      q.C = cc;
      if (q.K == 0) continue;
      std::vector<float> is(1ull * p.N * cc * HW), os(1ull * p.N * q.K * PQ),
          dw(1ull * q.K * cc * RS);
      for (int n = 0; n < p.N; ++n) {
        std::copy_n(in.data() + (1ull * n * p.C + c0) * HW, cc * HW,
                    is.data() + 1ull * n * cc * HW);
        std::copy_n(dout.data() + (1ull * n * p.K + k0 + lo) * PQ, q.K * PQ,
                    os.data() + 1ull * n * q.K * PQ);
      }
      xconv::baselines::naive_update(q, is.data(), os.data(), dw.data());
      std::copy(dw.begin(), dw.end(), ref_u.begin() + 1ull * lo * cc * RS);
    }
  }
  std::vector<float> got_u(ref_u.size());
  for (int k = 0; k < kc; ++k)
    std::copy_n(dwt.data() + (1ull * (k0 + k) * p.C + c0) * RS, 1ull * cc * RS,
                got_u.data() + 1ull * k * cc * RS);
  auto l2 = [](const std::vector<float>& ref, const float* got) {
    return xt::compare(ref.data(), got, ref.size()).l2_rel;
  };
  return {l2(ref_f, out.data() + (1ull * n0 * p.K + k0) * PQ),
          l2(ref_b, din.data() + (1ull * n0 * p.C + c0) * HW),
          l2(ref_u, got_u.data())};
}

void call(xc::ConvLayer& L, Tensors& t, int pass) {
  if (pass == kFwd)
    L.forward(t.in, t.wt, t.out);
  else if (pass == kBwd)
    L.backward(t.dout, t.wt, t.din);
  else
    L.update(t.in, t.dout, t.dwt);
}

/// One sweep: every layer's forward, backward and update, each call timed.
void sweep(std::vector<Case>& cases, bool one_thread, int id, Tracer* tr) {
  Tracer::Scope s(tr, one_thread ? "sweep_1t" : "sweep", "core.conv.sweep", id);
  for (Case& c : cases) {
    xc::ConvLayer& L = one_thread ? *c.layer_1t : *c.layer;
    for (int pass = 0; pass < kPasses; ++pass) {
      Tracer::Scope sc(tr, c.name, kCallName[pass], id);
      const auto t0 = Clock::now();
      call(L, c.t, pass);
      (one_thread ? c.ms_1t : c.ms)[pass].push_back(1e3 * seconds_since(t0));
    }
  }
}

/// A warm-up sweep, then timed sweeps for `seconds` (at least kMinSweeps);
/// returns the number of timed sweeps.
int timed_sweeps(std::vector<Case>& cases, bool one_thread, double seconds,
                 Tracer* tr, SteadyMisses& steady) {
  sweep(cases, one_thread, 0, tr);
  for (Case& c : cases)
    for (auto& v : one_thread ? c.ms_1t : c.ms) v.clear();
  const CacheMisses before = CacheMisses::now();
  const Budget b(seconds);
  int n = 0;
  while (b.more(static_cast<std::size_t>(n), kMinSweeps)) sweep(cases, one_thread, ++n, tr);
  steady.add(before);
  return n;
}

/// Sum over `cases` (optionally one table) of a pass's median call time.
double total_ms(const std::vector<Case>& cases, int pass, bool one_thread,
                const std::string& table = "") {
  double t = 0;
  for (const Case& c : cases)
    if (table.empty() || c.table == table) t += median(one_thread ? c.ms_1t[pass] : c.ms[pass]);
  return t;
}

double total_gflop(const std::vector<Case>& cases, const std::string& table = "") {
  double f = 0;
  for (const Case& c : cases)
    if (table.empty() || c.table == table) f += static_cast<double>(c.p.flops());
  return f / 1e9;
}

}  // namespace

void run_conv_layers(const Args& a, Result& r, Tracer* tr) {
  const int threads = bench_threads();
  std::vector<Case> cases = make_cases();

  const CacheMisses before_setup = CacheMisses::now();
  const auto t0 = Clock::now();
  for (Case& c : cases) c.layer = build(c.p, threads);
  r.setup_s = seconds_since(t0);
  if (a.setup_only) return;

  const PeakProbe peak = measure_peak_gflops_core(9);
  std::fprintf(stderr, "conv_layers: peak probe %.1f GFLOPS/core (q1 %.1f, q3 %.1f; %d trials, %d %s chains)\n",
               peak.median_gflops, peak.q1_gflops, peak.q3_gflops, peak.trials, peak.chains, peak.isa);

  double worst = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    Case& c = cases[i];
    c.t = make_tensors(*c.layer, (static_cast<std::uint64_t>(a.seed) << 16) + i);
    for (int pass = 0; pass < kPasses; ++pass) call(*c.layer, c.t, pass);
    const auto err = check_slice(c.p, c.t, (static_cast<std::uint64_t>(a.seed) << 20) ^ (i * 7919), threads);
    for (int pass = 0; pass < kPasses; ++pass) {
      worst = std::max(worst, err[pass]);
      r.checks.check(err[pass] <= kConvTol, c.name + " " + kPassName[pass] +
                                                " vs naive: l2_rel " + std::to_string(err[pass]));
    }
  }
  std::fprintf(stderr, "conv_layers: %zu layers x 3 passes checked against naive, worst l2_rel %.3g (tol %.0e)\n",
               cases.size(), worst, kConvTol);

  SteadyMisses steady;
  const int sweeps = timed_sweeps(cases, false, (tr != nullptr ? 0.5 : 1.0) * a.seconds, tr, steady);
  std::fprintf(stderr, "conv_layers: medians of %d calls per layer and pass at %d threads\n", sweeps, threads);

  double gflops[kPasses];
  for (int pass = 0; pass < kPasses; ++pass) {
    gflops[pass] = total_gflop(cases) / (1e-3 * total_ms(cases, pass, false));
    const double pct = 100.0 * gflops[pass] / (threads * peak.median_gflops);
    r.checks.check(pct <= 100.0 + kPeakTolPct,
                   std::string("conv ") + kPassName[pass] + " at " + std::to_string(pct) +
                       " % of probed peak");
    if (tr != nullptr) r.add(std::string("core.conv.") + kPassName[pass] + "_pct_peak", pct, "%");
  }

  if (tr == nullptr) {
    const double train_ms = total_ms(cases, kFwd, false) + total_ms(cases, kBwd, false) +
                            total_ms(cases, kUpd, false);
    r.add("train_img_s", kMinibatch / (1e-3 * train_ms), "img/s");
    r.add("infer_img_s", kMinibatch / (1e-3 * total_ms(cases, kFwd, false)), "img/s");
    for (int pass = 0; pass < kPasses; ++pass)
      r.add(std::string("conv_") + kPassName[pass] + "_gflops", gflops[pass], "GFLOPS");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    report_cache_counters(r, before_setup, steady, false);
    return;
  }

  for (const char* table : {"rn50", "incv3"})
    for (int pass = 0; pass < kPasses; ++pass)
      r.add(std::string("core.conv.") + table + "." + kPassName[pass] + "_gflops",
            total_gflop(cases, table) / (1e-3 * total_ms(cases, pass, false, table)),
            "GFLOPS");
  // The same sweeps with every layer built for 1 thread (ConvOptions::threads).
  for (Case& c : cases) c.layer_1t = build(c.p, 1);
  const int sweeps_1t = timed_sweeps(cases, true, 0.5 * a.seconds, tr, steady);
  std::fprintf(stderr, "conv_layers: medians of %d calls per layer and pass at 1 thread\n", sweeps_1t);
  for (int pass = 0; pass < kPasses; ++pass) {
    const double one = total_ms(cases, pass, true);
    const double pct1 = 100.0 * total_gflop(cases) / (1e-3 * one) / peak.median_gflops;
    r.checks.check(pct1 <= 100.0 + kPeakTolPct, std::string("1-thread conv ") +
                                                    kPassName[pass] + " at " +
                                                    std::to_string(pct1) + " % of probed peak");
    r.add(std::string("core.conv.") + kPassName[pass] + "_speedup_4t",
          one / total_ms(cases, pass, false), "x");
  }
  report_peak(r, peak);
  report_cache_counters(r, before_setup, steady, true);
}

}  // namespace perfbench
