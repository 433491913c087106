// ConvLayer forward vs the paper's Algorithm 1 oracle, across Table-I-style
// shapes, stream/branchy modes, backends and thread counts.
#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "topo/resnet50.hpp"

using namespace xconv;
using xconv::testing::ConvProblem;
using xconv::testing::expect_close;
using xconv::testing::with_plan;

namespace {
core::ConvParams small_table1(int idx, int n = 1) {
  // Table I layers with spatial dims shrunk 4x for test speed (identical
  // R/S/stride/channel structure).
  auto l = topo::resnet50_table1()[idx];
  l.H = std::max(l.H / 4, l.R);
  l.W = std::max(l.W / 4, l.S);
  return topo::table1_params(l, n);
}
}  // namespace

class FwdTable1 : public ::testing::TestWithParam<int> {};

TEST_P(FwdTable1, MatchesNaive) {
  const auto p = small_table1(GetParam());
  ConvProblem pr(p);
  core::ConvLayer layer(p);
  expect_close(naive_fwd(pr), layer_forward(layer, pr), 2e-3,
               p.to_string().c_str());
}

INSTANTIATE_TEST_SUITE_P(AllLayers, FwdTable1, ::testing::Range(0, 20));

TEST(Fwd, StreamsAndBranchyAgree) {
  const auto p = core::make_conv(2, 32, 48, 13, 11, 3, 3, 1);
  ConvProblem pr(p);
  core::ConvOptions with, without;
  with.use_streams = true;
  without.use_streams = false;
  core::ConvLayer a(p, with), b(p, without);
  expect_close(layer_forward(a, pr), layer_forward(b, pr), 1e-6,
               "streams-vs-branchy");
}

TEST(Fwd, ScalarBackendMatches) {
  const auto p = core::make_conv(1, 16, 16, 9, 9, 3, 3, 1);
  ConvProblem pr(p);
  core::ConvOptions o;
  o.backend = kernels::BackendPref::scalar;
  core::ConvLayer layer(p, o);
  expect_close(naive_fwd(pr), layer_forward(layer, pr), 2e-3, "scalar");
}

TEST(Fwd, ThreadCountInvariance) {
  const auto p = core::make_conv(4, 32, 32, 14, 14, 3, 3, 1);
  ConvProblem pr(p);
  core::ConvOptions o1, o4;
  o1.threads = 1;
  o4.threads = 4;
  core::ConvLayer a(p, o1), b(p, o4);
  expect_close(layer_forward(a, pr), layer_forward(b, pr), 1e-6, "threads");
}

TEST(Fwd, MoreThreadsThanJobsSplitsSpatially) {
  // N*Kb = 1 job but 4 threads: the spatial domain must be split (II-F).
  const auto p = core::make_conv(1, 16, 16, 28, 28, 3, 3, 1);
  ConvProblem pr(p);
  core::ConvOptions o;
  o.threads = 4;
  core::ConvLayer layer(p, o);
  EXPECT_EQ(layer.threads(), 4);
  // All four per-thread streams must carry work.
  EXPECT_GT(layer.fwd_stream_convs(), 0u);
  expect_close(naive_fwd(pr), layer_forward(layer, pr), 2e-3, "spatial split");
}

TEST(Fwd, RegisterBlockingOverride) {
  const auto p = core::make_conv(1, 16, 16, 12, 12, 3, 3, 1);
  ConvProblem pr(p);
  for (int rbq : {3, 4, 6, 12}) {
    core::ConvLayer layer(
        p, with_plan(p, {}, [rbq](core::ConvPlan& plan) {
          plan.rbp = 1;
          plan.rbq = rbq;
        }));
    EXPECT_EQ(layer.plan().rbq, rbq);
    expect_close(naive_fwd(pr), layer_forward(layer, pr), 2e-3, "rbq");
  }
}

TEST(Fwd, RegisterBudgetOverrideRejected) {
  const auto p = core::make_conv(1, 16, 16, 32, 32, 3, 3, 1);
  core::ConvPlan plan = core::ConvLayer(p).plan();
  plan.rbp = 4;
  plan.rbq = 14;  // 56 accumulators
  core::ConvOptions o;
  o.plan = plan;
  EXPECT_THROW(core::ConvLayer(p, o), std::invalid_argument);
}

TEST(Fwd, GeometryMismatchThrows) {
  const auto p = core::make_conv(1, 16, 16, 8, 8, 3, 3, 1);
  core::ConvLayer layer(p);
  auto in = layer.make_input();
  auto wt = layer.make_weights();
  auto out = layer.make_output();
  tensor::ActTensor bad_in(1, 16, 9, 8, 1, 1, 16);
  EXPECT_THROW(layer.forward(bad_in, wt, out), std::invalid_argument);
  tensor::ActTensor bad_out(1, 16, 8, 8, 0, 0, 16);  // missing bwd halo
  EXPECT_THROW(layer.forward(in, wt, bad_out), std::invalid_argument);
  tensor::WtTensor bad_wt(1, 1, 1, 1, 16);
  EXPECT_THROW(layer.forward(in, bad_wt, out), std::invalid_argument);
}

TEST(Fwd, InvalidParamsRejected) {
  core::ConvParams p;
  p.N = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = core::make_conv(1, 16, 16, 8, 8, 3, 3, 1);
  p.stride_h = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = core::make_conv(1, 16, 16, 8, 8, 3, 3, 1);
  p.pad_h = -1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = core::make_conv(1, 16, 16, 8, 8, 3, 3, 1);
  p.R = 20;  // filter larger than padded input
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Fwd, OneByOneUsesInKernelCbLoop) {
  const auto p = core::make_conv(1, 64, 32, 7, 7, 1, 1, 1, 0);
  core::ConvLayer layer(p);
  EXPECT_NE(layer.describe().find("cb-in-kernel"), std::string::npos);
  ConvProblem pr(p);
  expect_close(naive_fwd(pr), layer_forward(layer, pr), 2e-3, "1x1 cb");
}

TEST(Fwd, RectangularFiltersWork) {
  // Inception-v3's factorized 1x7 / 7x1 filters.
  core::ConvParams p;
  p.N = 1;
  p.C = 16;
  p.K = 16;
  p.H = 17;
  p.W = 17;
  p.R = 1;
  p.S = 7;
  p.pad_h = 0;
  p.pad_w = 3;
  p.validate();
  ConvProblem pr(p);
  core::ConvLayer layer(p);
  expect_close(naive_fwd(pr), layer_forward(layer, pr), 2e-3, "1x7");

  std::swap(p.R, p.S);
  std::swap(p.pad_h, p.pad_w);
  ConvProblem pr2(p);
  core::ConvLayer layer2(p);
  expect_close(naive_fwd(pr2), layer_forward(layer2, pr2), 2e-3, "7x1");
}

TEST(Fwd, RaisedHalosStillCorrect) {
  const auto p = core::make_conv(1, 16, 16, 10, 10, 3, 3, 1);
  core::ConvOptions o;
  o.in_halo_h = o.in_halo_w = 3;   // > pad (1)
  o.out_halo_h = o.out_halo_w = 4; // > R-1-pad (1)
  core::ConvLayer layer(p, o);
  ConvProblem pr(p);
  expect_close(naive_fwd(pr), layer_forward(layer, pr), 2e-3, "raised halos");
  expect_close(naive_bwd(pr), layer_backward(layer, pr), 2e-3,
               "raised halos bwd");
  expect_close(naive_upd(pr), layer_update(layer, pr), 2e-3,
               "raised halos upd");
}

TEST(Fwd, TooSmallHaloRejected) {
  const auto p = core::make_conv(1, 16, 16, 10, 10, 3, 3, 1);
  core::ConvOptions o;
  o.in_halo_h = 0;  // < pad
  EXPECT_THROW(core::ConvLayer(p, o), std::invalid_argument);
  core::ConvOptions o2;
  o2.out_halo_h = 0;  // < R-1-pad, needed by backward
  EXPECT_THROW(core::ConvLayer(p, o2), std::invalid_argument);
}

TEST(Fwd, DescribeMentionsKeyDecisions) {
  const auto p = core::make_conv(1, 32, 32, 14, 14, 3, 3, 1);
  core::ConvLayer layer(p);
  const std::string d = layer.describe();
  EXPECT_NE(d.find("rb="), std::string::npos);
  EXPECT_NE(d.find("bwd="), std::string::npos);
  EXPECT_NE(d.find("upd="), std::string::npos);
}
