// Figure 8: ResNet-50 (a) forward, (b) backward, (c) weight update with
// reduced-precision int16 kernels vs fp32, layers 2-20 (the paper's x-axis
// skips layer 1). Reports GOPS for both precisions and the speedup. Expected
// shape: fwd/bwd average speedup ~1.6x (below the 2x instruction-throughput
// gain: 32-bit output traffic + restricted accumulation chains), upd ~1.3x
// (additionally pays the dO pair-interleave "transpose" and 32-bit dW
// reduction traffic). Layer 1 (7x7 stride-2) is excluded as in the paper.
// Every row is the median of the timed runs, so one slow run cannot swing a
// row; the average speedups are geometric means of the per-layer ratios.
#include <cmath>

#include "bench_common.hpp"
#include "quant/qconv_layer.hpp"

using namespace xconv;
using namespace xconv::bench;

int main() {
  const int mb = platform::bench_minibatch(1);
  const int runs = platform::bench_runs(3);
  const bool have_vnni =
      platform::effective_isa() == platform::Isa::avx512_vnni;
  print_header("Figure 8: int16 (qi16f32) vs fp32, ResNet-50 layers 2-20",
               mb, runs);
  if (!have_vnni)
    std::printf("NOTE: host lacks AVX512-VNNI; int16 kernels run the scalar "
                "path (speedups below 1 expected).\n");
  std::printf("%3s | %9s %9s %7s | %9s %9s %7s | %9s %9s %7s\n", "ID",
              "fwd32", "fwd16", "spd", "bwd32", "bwd16", "spd", "upd32",
              "upd16", "spd");

  // Sums of log speedups: the average of ratios is their geometric mean.
  double log_f = 0, log_b = 0, log_u = 0;
  int cnt_f = 0, cnt_b = 0, cnt_u = 0;
  auto median_gflops = [&](const std::function<void()>& fn, std::size_t flops) {
    return platform::time_runs(fn, runs, 1).median_gflops(flops);
  };
  for (const auto& l : topo::resnet50_table1()) {
    if (l.id == 1) continue;
    const auto p = topo::table1_params(l, mb);
    core::ConvLayer f32(p);
    auto t = make_tensors(f32);
    const double g_f32 =
        median_gflops([&] { f32.forward(t.in, t.wt, t.out); }, p.flops());
    const double g_b32 =
        median_gflops([&] { f32.backward(t.dout, t.wt, t.din); }, p.flops());
    const double g_u32 =
        median_gflops([&] { f32.update(t.in, t.dout, t.dwt); }, p.flops());

    // XCONV_BACKEND=jit would throw for int16 below avx512_vnni; such a
    // host prints the scalar rows the note above announces instead.
    quant::QConvLayer q(p, 0, 64, platform::effective_isa(),
                        have_vnni ? kernels::backend_pref_from_env()
                                  : kernels::BackendPref::auto_pick);
    const auto qin = quant::quantize_act(t.in);
    const auto qwt = quant::quantize_wt(t.wt);
    const auto qdout = quant::quantize_act(t.dout);
    const auto qwtb = quant::quantize_wt_bwd(t.wt);

    const double g_f16 =
        median_gflops([&] { q.forward(qin, qwt, t.out); }, p.flops());
    double g_b16 = 0;
    const bool bwd_ok = (p.stride_h == 1) || (p.R == 1 && p.S == 1);
    if (bwd_ok)
      g_b16 =
          median_gflops([&] { q.backward(qdout, qwtb, t.din); }, p.flops());
    const double g_u16 =
        median_gflops([&] { q.update(qin, qdout, t.dwt); }, p.flops());

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
    std::printf("%3d | %9.1f %9.1f %7.2f | %9.1f %9.1f %7.2f | %9.1f %9.1f "
                "%7.2f\n",
                l.id, g_f32, g_f16, sf, g_b32, g_b16, sb, g_u32, g_u16, su);
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
