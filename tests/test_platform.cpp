#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "core/conv_params.hpp"
#include "platform/cpu.hpp"
#include "platform/roofline.hpp"
#include "platform/timer.hpp"
#include "topo/resnet50.hpp"

using namespace xconv;
using platform::Isa;

TEST(Cpu, FeatureDetectionIsConsistent) {
  const auto& f = platform::cpu_features();
  // AVX-512 implies AVX2-era features on every real CPU we target.
  if (f.avx512f) {
    EXPECT_TRUE(f.avx2);
    EXPECT_TRUE(f.fma);
  }
  EXPECT_FALSE(f.vendor.empty());
}

TEST(Cpu, MaxIsaMatchesFeatures) {
  const auto& f = platform::cpu_features();
  const Isa isa = platform::max_isa();
  if (isa >= Isa::avx512) {
    EXPECT_TRUE(f.avx512f && f.avx512bw && f.avx512vl && f.os_avx512);
  }
  if (isa == Isa::avx512_vnni) {
    EXPECT_TRUE(f.avx512vnni);
  }
  if (isa == Isa::avx2) {
    EXPECT_TRUE(f.avx2 && f.fma && f.os_avx);
  }
}

TEST(Cpu, VlenPerIsa) {
  EXPECT_EQ(platform::vlen_fp32(Isa::scalar), 1);
  EXPECT_EQ(platform::vlen_fp32(Isa::avx2), 8);
  EXPECT_EQ(platform::vlen_fp32(Isa::avx512), 16);
  EXPECT_EQ(platform::vlen_fp32(Isa::avx512_vnni), 16);
}

TEST(Cpu, IsaNamesRoundTrip) {
  EXPECT_STREQ(platform::isa_name(Isa::scalar), "scalar");
  EXPECT_STREQ(platform::isa_name(Isa::avx2), "avx2");
  EXPECT_STREQ(platform::isa_name(Isa::avx512), "avx512");
  EXPECT_STREQ(platform::isa_name(Isa::avx512_vnni), "avx512_vnni");
}

TEST(Cpu, EnvOverrideOnlyLowers) {
  ::setenv("XCONV_ISA", "scalar", 1);
  EXPECT_EQ(platform::effective_isa(), Isa::scalar);
  ::setenv("XCONV_ISA", "not_an_isa", 1);
  EXPECT_EQ(platform::effective_isa(), platform::max_isa());
  ::unsetenv("XCONV_ISA");
  EXPECT_EQ(platform::effective_isa(), platform::max_isa());
}

// Exhaustive downgrade matrix, host-independent: for every (request, ceiling)
// pair the clamp must return min(request, ceiling) — never a tier above what
// the CPU/OS combination can execute, regardless of what the env asks for.
TEST(Cpu, IsaClampNeverExceedsCeiling) {
  const Isa tiers[] = {Isa::scalar, Isa::avx2, Isa::avx512, Isa::avx512_vnni};
  for (Isa ceiling : tiers) {
    for (Isa req : tiers) {
      const Isa got = platform::isa_clamped(platform::isa_name(req), ceiling);
      const Isa want = std::min(static_cast<int>(req),
                                static_cast<int>(ceiling)) ==
                               static_cast<int>(req)
                           ? req
                           : ceiling;
      EXPECT_EQ(got, want) << "request=" << platform::isa_name(req)
                           << " ceiling=" << platform::isa_name(ceiling);
      EXPECT_LE(static_cast<int>(got), static_cast<int>(ceiling));
    }
  }
}

TEST(Cpu, IsaClampIgnoresUnknownAndNull) {
  const Isa tiers[] = {Isa::scalar, Isa::avx2, Isa::avx512, Isa::avx512_vnni};
  for (Isa ceiling : tiers) {
    EXPECT_EQ(platform::isa_clamped(nullptr, ceiling), ceiling);
    EXPECT_EQ(platform::isa_clamped("", ceiling), ceiling);
    EXPECT_EQ(platform::isa_clamped("AVX512", ceiling), ceiling);  // case-sensitive
    EXPECT_EQ(platform::isa_clamped("sse4", ceiling), ceiling);
  }
}

// A raise request on a host without that tier must stay at the host ceiling:
// this is exactly the "CI runner without AVX-512" scenario.
TEST(Cpu, IsaClampCannotRaiseAboveScalarHost) {
  EXPECT_EQ(platform::isa_clamped("avx512_vnni", Isa::scalar), Isa::scalar);
  EXPECT_EQ(platform::isa_clamped("avx512", Isa::avx2), Isa::avx2);
  EXPECT_EQ(platform::isa_clamped("avx512_vnni", Isa::avx512), Isa::avx512);
}

TEST(Roofline, PaperMachineConstants) {
  const auto& skx = platform::skx_model();
  EXPECT_EQ(skx.cores, 28);
  EXPECT_NEAR(skx.peak_gflops(), 28 * 147.0, 1e-9);
  EXPECT_TRUE(skx.shared_llc);
  const auto& knm = platform::knm_model();
  EXPECT_EQ(knm.cores, 72);
  EXPECT_NEAR(knm.peak_gflops_core, 192.0, 1e-9);
  EXPECT_FALSE(knm.shared_llc);
}

TEST(Roofline, AttainableRespectsRoofs) {
  const auto& knm = platform::knm_model();
  // Very low operational intensity -> bandwidth bound, far below peak.
  EXPECT_LT(knm.attainable_gflops(0.5, 0.5), knm.peak_gflops());
  // Very high intensity -> compute bound.
  EXPECT_NEAR(knm.attainable_gflops(1e9, 1e9), knm.peak_gflops(), 1e-6);
}

// The paper's efficiency narrative (Sections III-A/B):
//   * 3x3 layers reach higher efficiency than 1x1 layers on both machines;
//   * 1x1 layers lose much more on KNM (L2-bound) than on SKX;
//   * upd efficiency is below fwd efficiency.
TEST(Roofline, Reproduces1x1Vs3x3Contrast) {
  const auto t1 = topo::resnet50_table1();
  const auto p_3x3 = topo::table1_params(t1[12], 28);  // layer 13: 3x3
  const auto p_1x1 = topo::table1_params(t1[13], 28);  // layer 14: 1x1
  using platform::Pass;
  const double knm_3x3 =
      platform::knm_model().project_efficiency(p_3x3, Pass::fwd);
  const double knm_1x1 =
      platform::knm_model().project_efficiency(p_1x1, Pass::fwd);
  const double skx_1x1 =
      platform::skx_model().project_efficiency(p_1x1, Pass::fwd);
  EXPECT_GT(knm_3x3, knm_1x1);
  EXPECT_GT(skx_1x1, knm_1x1);
  EXPECT_GT(knm_3x3, 0.55);
  EXPECT_LT(knm_1x1, 0.70);
}

TEST(Roofline, UpdBelowFwd) {
  const auto t1 = topo::resnet50_table1();
  using platform::Pass;
  for (int idx : {3, 7, 12}) {
    const auto p = topo::table1_params(t1[idx], 28);
    const auto& m = platform::skx_model();
    EXPECT_LT(m.project_efficiency(p, Pass::upd),
              m.project_efficiency(p, Pass::fwd))
        << "layer " << t1[idx].id;
  }
}

TEST(Timer, BenchStatsBasics) {
  auto st = platform::time_runs([] {}, 5, 1);
  EXPECT_EQ(st.runs, 5);
  EXPECT_GE(st.mean_s, 0);
  EXPECT_LE(st.min_s, st.mean_s);
  EXPECT_GE(st.max_s, st.mean_s);
  EXPECT_LE(st.min_s, st.median_s);
  EXPECT_GE(st.max_s, st.median_s);
}

TEST(Timer, GflopsComputation) {
  platform::BenchStats st;
  st.mean_s = 0.5;
  st.median_s = 0.4;
  st.min_s = 0.25;
  EXPECT_DOUBLE_EQ(st.gflops(1'000'000'000), 2.0);
  EXPECT_DOUBLE_EQ(st.median_gflops(1'000'000'000), 2.5);
  EXPECT_DOUBLE_EQ(st.best_gflops(1'000'000'000), 4.0);
}

TEST(Timer, EnvKnobs) {
  ::setenv("XCONV_BENCH_RUNS", "7", 1);
  EXPECT_EQ(platform::bench_runs(3), 7);
  ::unsetenv("XCONV_BENCH_RUNS");
  EXPECT_EQ(platform::bench_runs(3), 3);
  ::setenv("XCONV_MB", "0", 1);  // non-positive ignored
  EXPECT_EQ(platform::bench_minibatch(2), 2);
  ::unsetenv("XCONV_MB");
}

TEST(Timer, HostPeakIsPositive) {
  const double peak = platform::measure_host_peak_gflops_core();
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_UNDEFINED__) || \
    !defined(NDEBUG)
  // -O0 and sanitizer instrumentation leave the FMA loop unvectorized and
  // ~50x slower (~0.1 GFLOPS observed under -O0 + ASan/UBSan).
  EXPECT_GT(peak, 0.01);
#else
  EXPECT_GT(peak, 0.5);  // any optimized build manages half a GFLOPS
#endif
}
