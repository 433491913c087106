// Randomized parameter fuzzing: all three passes vs the naive oracle over a
// reproducible sample of the convolution parameter space (channel counts
// that are not vector multiples, rectangular filters/images, every stride /
// padding combination the layer supports). Execution mode is fuzzed too:
// stream replay vs branchy drivers, thread counts, fused operators and
// plans with register/pixel blocks that force edge-block (p_rem_/q_rem_ > 0)
// kernels into the streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <random>

#include "test_helpers.hpp"

using namespace xconv;
using xconv::testing::ConvProblem;
using xconv::testing::expect_bitwise;
using xconv::testing::expect_close;
using xconv::testing::with_plan;

namespace {

core::ConvParams random_params(unsigned seed) {
  std::mt19937 rng(seed);
  auto pick = [&](std::initializer_list<int> opts) {
    std::uniform_int_distribution<int> d(0, static_cast<int>(opts.size()) - 1);
    return *(opts.begin() + d(rng));
  };
  core::ConvParams p;
  for (int attempt = 0; attempt < 100; ++attempt) {
    p.N = pick({1, 2, 3});
    p.C = pick({3, 8, 16, 24, 32, 48});
    p.K = pick({8, 16, 20, 32, 64});
    p.H = pick({5, 7, 9, 12, 14, 17});
    p.W = pick({5, 7, 9, 12, 14, 17});
    p.R = pick({1, 3, 5, 7});
    p.S = pick({1, 3, 5, 7});
    p.stride_h = p.stride_w = pick({1, 1, 1, 2, 3});
    if (p.R == 1 && p.S != 1) p.S = 1;  // keep 1x1 pairs consistent
    // 1x1 kernels use zero padding (the duality constraint real CNNs obey);
    // otherwise "same"-ish padding.
    p.pad_h = p.R == 1 ? 0 : (p.R - 1) / 2;
    p.pad_w = p.S == 1 ? 0 : (p.S - 1) / 2;
    if (p.H + 2 * p.pad_h < p.R || p.W + 2 * p.pad_w < p.S) continue;
    if (p.P() < 1 || p.Q() < 1) continue;
    p.validate();
    return p;
  }
  return core::make_conv(1, 16, 16, 8, 8, 3, 3, 1);
}

// Randomized execution mode: stream vs branchy (unless `streams` pins it),
// thread count, and plan edits — update strategy and occasional
// register/pixel blocking that force edge kernels. The edits go through an
// explicit plan derived from the default for the drawn (or pinned) mode.
core::ConvOptions random_options(const core::ConvParams& p, unsigned seed,
                                 std::optional<bool> streams = {}) {
  std::mt19937 rng(seed * 7919u + 13u);
  core::ConvOptions o;
  o.use_streams = (rng() % 2) == 0;
  if (streams.has_value()) o.use_streams = *streams;
  o.threads = 1 + static_cast<int>(rng() % 3);
  std::optional<core::UpdStrategy> strategy;
  switch (rng() % 4) {
    case 0: strategy = core::UpdStrategy::task; break;
    case 1: strategy = core::UpdStrategy::minibatch; break;
    case 2: strategy = core::UpdStrategy::hybrid; break;
    default: break;  // plan default
  }
  int rbq = 0, upd_bp = 0, upd_bq = 0;
  if (rng() % 3 == 0) rbq = 3 + static_cast<int>(rng() % 3);
  if (rng() % 3 == 0) {
    upd_bp = 2 + static_cast<int>(rng() % 2);
    upd_bq = 3 + static_cast<int>(rng() % 3);
  }
  if (!strategy.has_value() && rbq == 0 && upd_bp == 0) return o;
  return with_plan(p, o, [&](core::ConvPlan& plan) {
    if (strategy.has_value()) plan.upd_strategy = *strategy;
    // A register block other than the default is not a full row of Q, so
    // the default rule would give it one row (rbp = 1).
    if (rbq > 0 && rbq != plan.rbq) {
      plan.rbq = rbq;
      plan.rbp = 1;
    }
    // validate() bounds pixel blocks by P x Q; a larger block would run as
    // one edge block over the whole dimension, i.e. the same kernel calls.
    if (upd_bp > 0) {
      plan.upd_bp = std::min(upd_bp, p.P());
      plan.upd_bq = std::min(upd_bq, p.Q());
    }
  });
}

}  // namespace

class ConvFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(ConvFuzz, ForwardMatchesNaive) {
  const auto p = random_params(GetParam());
  const auto o = random_options(p, GetParam());
  SCOPED_TRACE(p.to_string());
  ConvProblem pr(p, GetParam());
  core::ConvLayer layer(p, o);
  expect_close(naive_fwd(pr), layer_forward(layer, pr), 3e-3, "fuzz fwd");
}

TEST_P(ConvFuzz, BackwardMatchesNaive) {
  const auto p = random_params(GetParam());
  const auto o = random_options(p, GetParam() + 500);
  SCOPED_TRACE(p.to_string());
  ConvProblem pr(p, GetParam() + 1000);
  core::ConvLayer layer(p, o);
  expect_close(naive_bwd(pr), layer_backward(layer, pr), 3e-3, "fuzz bwd");
}

TEST_P(ConvFuzz, UpdateMatchesNaive) {
  const auto p = random_params(GetParam());
  const auto o = random_options(p, GetParam() + 600);
  SCOPED_TRACE(p.to_string());
  ConvProblem pr(p, GetParam() + 2000);
  core::ConvLayer layer(p, o);
  expect_close(naive_upd(pr), layer_update(layer, pr), 4e-3, "fuzz upd");
}

TEST_P(ConvFuzz, AdjointPropertyHolds) {
  // <conv(x; W), y> == <x, conv_bwd(y; W)> through the optimized layer.
  const auto p = random_params(GetParam());
  const auto o = random_options(p, GetParam() + 700);
  SCOPED_TRACE(p.to_string());
  ConvProblem pr(p, GetParam() + 3000);
  core::ConvLayer layer(p, o);
  const auto out = layer_forward(layer, pr);
  const auto din = layer_backward(layer, pr);
  double lhs = 0, rhs = 0;
  for (std::size_t i = 0; i < out.size(); ++i)
    lhs += static_cast<double>(out[i]) * pr.dout[i];
  for (std::size_t i = 0; i < din.size(); ++i)
    rhs += static_cast<double>(din[i]) * pr.in[i];
  EXPECT_NEAR(lhs, rhs, 2e-3 * std::max(1.0, std::abs(lhs)));
}

TEST_P(ConvFuzz, StreamReplayMatchesBranchyBitwise) {
  // The defining property of replay (old fwd path and the new bwd/upd
  // paths): the same kernel-call sequence as the branchy driver, hence
  // bit-identical results — over random shapes, thread counts, update
  // strategies, pinned blockings and the in-kernel fused ReLU.
  const auto p = random_params(GetParam());
  auto branchy_o = random_options(p, GetParam() + 800, false);
  auto stream_o = random_options(p, GetParam() + 800, true);
  std::mt19937 rng(GetParam() * 31u + 7u);
  branchy_o.fuse = stream_o.fuse =
      (rng() % 2 == 0) ? core::FusedOp::relu : core::FusedOp::none;
  SCOPED_TRACE(p.to_string());
  ConvProblem pr(p, GetParam() + 4000);

  core::ConvLayer branchy(p, branchy_o);
  core::ConvLayer stream(p, stream_o);

  expect_bitwise(layer_forward(branchy, pr), layer_forward(stream, pr),
                 "fwd stream-vs-branchy");
  expect_bitwise(layer_backward(branchy, pr), layer_backward(stream, pr),
                 "bwd stream-vs-branchy");
  expect_bitwise(layer_update(branchy, pr), layer_update(stream, pr),
                 "upd stream-vs-branchy");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvFuzz, ::testing::Range(0u, 24u));
