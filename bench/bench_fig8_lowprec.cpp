// Figure 8: ResNet-50 (a) forward, (b) backward, (c) weight update with
// reduced-precision int16 kernels vs fp32, layers 2-20 (the paper's x-axis
// skips layer 1). Reports GOPS for both precisions and the speedup. Expected
// shape: fwd/bwd average speedup ~1.6x (below the 2x instruction-throughput
// gain: 32-bit output traffic + restricted accumulation chains), upd ~1.3x
// (additionally pays the dO pair-interleave "transpose" and 32-bit dW
// reduction traffic). Layer 1 (7x7 stride-2) is excluded as in the paper.
// Every row is the median of the timed runs (default 5, XCONV_BENCH_RUNS),
// so one slow run cannot swing a row; each int16 column is followed by its
// interquartile range as a share of the median ("iqr"), the spread a change
// must beat to show in that row. The average speedups are geometric means
// of the per-layer ratios.
#include <cmath>

#include "bench_common.hpp"
#include "quant/qconv_layer.hpp"

using namespace xconv;
using namespace xconv::bench;

int main() {
  const int mb = platform::bench_minibatch(1);
  const int runs = platform::bench_runs(5);
  const bool have_vnni =
      platform::effective_isa() == platform::Isa::avx512_vnni;
  print_header("Figure 8: int16 (qi16f32) vs fp32, ResNet-50 layers 2-20",
               mb, runs);
  if (!have_vnni)
    std::printf("NOTE: host lacks AVX512-VNNI; int16 kernels run the scalar "
                "path (speedups below 1 expected).\n");
  std::printf("%3s | %8s %8s %5s %5s | %8s %8s %5s %5s | %8s %8s %5s %5s\n",
              "ID", "fwd32", "fwd16", "iqr", "spd", "bwd32", "bwd16", "iqr",
              "spd", "upd32", "upd16", "iqr", "spd");

  // Sums of log speedups: the average of ratios is their geometric mean.
  double log_f = 0, log_b = 0, log_u = 0;
  int cnt_f = 0, cnt_b = 0, cnt_u = 0;
  auto timed = [&](const std::function<void()>& fn) {
    return platform::time_runs(fn, runs, 1);
  };
  for (const auto& l : topo::resnet50_table1()) {
    if (l.id == 1) continue;
    const auto p = topo::table1_params(l, mb);
    core::ConvLayer f32(p);
    auto t = make_tensors(f32);
    const double g_f32 = timed([&] { f32.forward(t.in, t.wt, t.out); })
                             .median_gflops(p.flops());
    const double g_b32 = timed([&] { f32.backward(t.dout, t.wt, t.din); })
                             .median_gflops(p.flops());
    const double g_u32 = timed([&] { f32.update(t.in, t.dout, t.dwt); })
                             .median_gflops(p.flops());

    // XCONV_BACKEND=jit would throw for int16 below avx512_vnni; such a
    // host prints the scalar rows the note above announces instead.
    quant::QConvLayer q(p, 0, 64, platform::effective_isa(),
                        have_vnni ? kernels::backend_pref_from_env()
                                  : kernels::BackendPref::auto_pick);
    const auto qin = quant::quantize_act(t.in);
    const auto qwt = quant::quantize_wt(t.wt);
    const auto qdout = quant::quantize_act(t.dout);
    const auto qwtb = quant::quantize_wt_bwd(t.wt);

    const auto f16 = timed([&] { q.forward(qin, qwt, t.out); });
    platform::BenchStats b16;
    const bool bwd_ok = (p.stride_h == 1) || (p.R == 1 && p.S == 1);
    if (bwd_ok) b16 = timed([&] { q.backward(qdout, qwtb, t.din); });
    const auto u16 = timed([&] { q.update(qin, qdout, t.dwt); });
    const double g_f16 = f16.median_gflops(p.flops());
    const double g_b16 = b16.median_gflops(p.flops());
    const double g_u16 = u16.median_gflops(p.flops());

    const double sf = g_f32 > 0 ? g_f16 / g_f32 : 0;
    const double sb = (bwd_ok && g_b32 > 0) ? g_b16 / g_b32 : 0;
    const double su = g_u32 > 0 ? g_u16 / g_u32 : 0;
    if (sf > 0) {
      log_f += std::log(sf);
      ++cnt_f;
    }
    if (sb > 0) {
      log_b += std::log(sb);
      ++cnt_b;
    }
    if (su > 0) {
      log_u += std::log(su);
      ++cnt_u;
    }
    std::printf("%3d | %8.1f %8.1f %4.0f%% %5.2f | %8.1f %8.1f %4.0f%% %5.2f "
                "| %8.1f %8.1f %4.0f%% %5.2f\n",
                l.id, g_f32, g_f16, 100 * f16.iqr_share(), sf, g_b32, g_b16,
                100 * b16.iqr_share(), sb, g_u32, g_u16,
                100 * u16.iqr_share(), su);
  }
  auto geomean = [](double log_sum, int n) {
    return n > 0 ? std::exp(log_sum / n) : 0.0;
  };
  std::printf("\ngeomean speedups: fwd %.2fx  bwd %.2fx  upd %.2fx\n",
              geomean(log_f, cnt_f), geomean(log_b, cnt_b),
              geomean(log_u, cnt_u));
  std::printf("Paper reference (KNM 4VNNIW): fwd 1.63x, bwd 1.58x, upd 1.3x "
              "(all < 2x: 32-bit outputs + restricted accumulation chains; "
              "upd also pays the dO transpose).\n");
  return 0;
}
