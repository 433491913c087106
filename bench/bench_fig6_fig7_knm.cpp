// Figures 6 and 7: ResNet-50 on Knights Mill. Without a KNM host, the
// *shape* of these figures is reproduced two ways:
//   1. measured host GFLOPS per layer/pass (relative ordering), and
//   2. the KNM/SKX roofline projections of Section III-B, which explain the
//      figures' key contrast: 1x1 layers drop to ~55% of peak on KNM (L2
//      read bandwidth bound at 54.4 GB/s/core) while 3x3 layers stay at
//      70-75%; on SKX both are closer to compute bound. For UPD, KNM's
//      missing shared LLC makes the dW reduction memory-bound (20-55%).
#include "bench_common.hpp"

using namespace xconv;
using namespace xconv::bench;

int main() {
  const int mb = platform::bench_minibatch(1);
  const int runs = platform::bench_runs(3);
  print_header(
      "Figures 6/7: ResNet-50 on KNM — measured host + roofline projection",
      mb, runs);
  std::printf("%3s %4s | %9s | %8s %8s %8s | %8s %8s %8s | %13s\n", "ID",
              "RxS", "host fwd", "KNMfwd%", "KNMbwd%", "KNMupd%", "SKXfwd%",
              "SKXbwd%", "SKXupd%", "KNM fwd GF/s");

  const auto& knm = platform::knm_model();
  const auto& skx = platform::skx_model();
  for (const auto& l : topo::resnet50_table1()) {
    const auto p = topo::table1_params(l, mb);
    core::ConvLayer work(p);
    auto t = make_tensors(work);
    const double g_fwd = fwd_gflops(work, t, runs);

    using platform::Pass;
    const double kf = knm.project_efficiency(p, Pass::fwd);
    const double kb = knm.project_efficiency(p, Pass::bwd);
    const double ku = knm.project_efficiency(p, Pass::upd);
    const double sf = skx.project_efficiency(p, Pass::fwd);
    const double sb = skx.project_efficiency(p, Pass::bwd);
    const double su = skx.project_efficiency(p, Pass::upd);
    std::printf(
        "%3d %dx%d | %9.1f | %8.1f %8.1f %8.1f | %8.1f %8.1f %8.1f | %13.0f\n",
        l.id, l.R, l.S, g_fwd, 100 * kf, 100 * kb, 100 * ku, 100 * sf,
        100 * sb, 100 * su, kf * knm.peak_gflops());
  }
  std::printf("\nPaper reference (Fig 6/7): KNM fwd ~55%% (1x1) vs 70-75%% "
              "(3x3); SKX 1x1 ~70%%; KNM upd 20-55%% (no shared LLC for the "
              "dW reduction + 4FMA transpose overhead).\n");
  return 0;
}
