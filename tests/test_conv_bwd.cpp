// ConvLayer backward vs Algorithm 6, covering all three implementation paths
// (stride-1 duality, scattered 1x1 duality, Algorithm-7 GEMM fallback).
#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "topo/resnet50.hpp"

using namespace xconv;
using xconv::testing::ConvProblem;
using xconv::testing::expect_close;
using core::BwdAlgo;

namespace {
core::ConvParams small_table1(int idx, int n = 1) {
  auto l = topo::resnet50_table1()[idx];
  l.H = std::max(l.H / 4, l.R);
  l.W = std::max(l.W / 4, l.S);
  return topo::table1_params(l, n);
}
}  // namespace

class BwdTable1 : public ::testing::TestWithParam<int> {};

TEST_P(BwdTable1, MatchesNaive) {
  const auto p = small_table1(GetParam());
  ConvProblem pr(p);
  core::ConvLayer layer(p);
  expect_close(naive_bwd(pr), layer_backward(layer, pr), 2e-3,
               p.to_string().c_str());
}

INSTANTIATE_TEST_SUITE_P(AllLayers, BwdTable1, ::testing::Range(0, 20));

TEST(Bwd, AlgoSelectionFollowsPaperScenarios) {
  // Section II-I scenario 1: stride == 1 -> duality.
  core::ConvLayer s1(core::make_conv(1, 16, 16, 8, 8, 3, 3, 1));
  EXPECT_EQ(s1.plan().bwd_algo, BwdAlgo::duality_stride1);
  // Scenario 2: R = S = 1, stride 2 -> scattered duality.
  core::ConvLayer s2(core::make_conv(1, 16, 16, 8, 8, 1, 1, 2, 0));
  EXPECT_EQ(s2.plan().bwd_algo, BwdAlgo::duality_1x1_strided);
  // Neither: 3x3 stride 2 -> Algorithm 7.
  core::ConvLayer s3(core::make_conv(1, 16, 16, 9, 9, 3, 3, 2));
  EXPECT_EQ(s3.plan().bwd_algo, BwdAlgo::gemm_fallback);
}

TEST(Bwd, Stride1DualityPerRSCombos) {
  for (int r : {1, 3, 5}) {
    const auto p = core::make_conv(1, 16, 32, 11, 13, r, r, 1);
    ConvProblem pr(p, 100 + r);
    core::ConvLayer layer(p);
    EXPECT_EQ(layer.plan().bwd_algo, BwdAlgo::duality_stride1);
    expect_close(naive_bwd(pr), layer_backward(layer, pr), 2e-3,
                 p.to_string().c_str());
  }
}

TEST(Bwd, Strided1x1VariousStrides) {
  for (int s : {2, 3, 4}) {
    const auto p = core::make_conv(1, 32, 16, 12, 12, 1, 1, s, 0);
    ConvProblem pr(p, 200 + s);
    core::ConvLayer layer(p);
    EXPECT_EQ(layer.plan().bwd_algo, BwdAlgo::duality_1x1_strided);
    expect_close(naive_bwd(pr), layer_backward(layer, pr), 2e-3,
                 p.to_string().c_str());
  }
}

TEST(Bwd, GemmFallbackStridedOddShapes) {
  // Uneven stride coverage (floor-semantics output) + padding.
  const auto p = core::make_conv(2, 16, 16, 15, 13, 3, 3, 2);
  ConvProblem pr(p, 7);
  core::ConvLayer layer(p);
  EXPECT_EQ(layer.plan().bwd_algo, BwdAlgo::gemm_fallback);
  expect_close(naive_bwd(pr), layer_backward(layer, pr), 2e-3, "odd gemm");
}

TEST(Bwd, GemmFallbackScalarBackend) {
  const auto p = core::make_conv(1, 16, 16, 9, 9, 3, 3, 2);
  ConvProblem pr(p, 8);
  core::ConvOptions o;
  o.backend = kernels::BackendPref::scalar;
  o.isa = platform::Isa::scalar;
  core::ConvLayer layer(p, o);
  expect_close(naive_bwd(pr), layer_backward(layer, pr), 2e-3, "scalar gemm");
}

TEST(Bwd, DualLayerReusesForwardMachinery) {
  // The dual layer's stream-based forward is what runs backward: verify the
  // stream conv count is nonzero and backward still matches with streams off.
  const auto p = core::make_conv(1, 32, 32, 10, 10, 3, 3, 1);
  ConvProblem pr(p, 9);
  core::ConvOptions on, off;
  on.use_streams = true;
  off.use_streams = false;
  core::ConvLayer a(p, on), b(p, off);
  expect_close(layer_backward(a, pr), layer_backward(b, pr), 1e-6,
               "bwd streams-vs-branchy");
}

TEST(Bwd, ThreadInvariance) {
  const auto p = core::make_conv(4, 16, 32, 9, 9, 3, 3, 2);  // gemm fallback
  ConvProblem pr(p, 10);
  core::ConvOptions o1, o4;
  o1.threads = 1;
  o4.threads = 4;
  core::ConvLayer a(p, o1), b(p, o4);
  expect_close(layer_backward(a, pr), layer_backward(b, pr), 1e-6,
               "bwd threads");
}

TEST(Bwd, GradOutGeometryEnforced) {
  const auto p = core::make_conv(1, 16, 16, 8, 8, 3, 3, 1);
  core::ConvLayer layer(p);
  auto wt = layer.make_weights();
  auto din = layer.make_input();
  tensor::ActTensor bad(1, 16, 8, 8, 0, 0, 16);  // no bwd halo
  EXPECT_THROW(layer.backward(bad, wt, din), std::invalid_argument);
}

TEST(Bwd, FwdOnlyLayerHasNoBackward) {
  const auto p = core::make_conv(1, 16, 16, 8, 8, 3, 3, 1);
  core::ConvOptions o;
  o.fwd_only = true;
  core::ConvLayer layer(p, o);
  ConvProblem pr(p);
  // Forward still fine:
  expect_close(xconv::testing::naive_fwd(pr), layer_forward(layer, pr), 2e-3,
               "fwd_only fwd");
}

TEST(Bwd, GradientsOfPaddingAreDiscarded) {
  // Property: sum over dI equals sum over the naive dI (no halo leakage).
  const auto p = core::make_conv(1, 16, 16, 9, 9, 3, 3, 2);  // gemm path
  ConvProblem pr(p, 11);
  core::ConvLayer layer(p);
  const auto got = layer_backward(layer, pr);
  const auto want = xconv::testing::naive_bwd(pr);
  double sg = 0, sw = 0;
  for (float v : got) sg += v;
  for (float v : want) sw += v;
  EXPECT_NEAR(sg, sw, 1e-2 * std::max(1.0, std::abs(sw)));
}
