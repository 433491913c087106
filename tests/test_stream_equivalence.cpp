// Stream replay vs branchy drivers (Section II-H): replay must produce
// *bit-identical* outputs for all three passes — the recorded stream is the
// branchy loop nest's exact kernel-call sequence, only with real prefetch
// operands — across every backward algorithm and weight-update strategy.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "test_helpers.hpp"

using namespace xconv;
using core::ConvOptions;
using core::ConvParams;
using core::FusedOp;
using core::UpdStrategy;
using xconv::testing::ConvProblem;
using xconv::testing::expect_bitwise;
using xconv::testing::PlanEdit;
using xconv::testing::with_plan;

namespace {

// Each stream mode gets its own plan, derived from options with that mode.
ConvOptions with_streams(const ConvParams& p, ConvOptions o, bool streams,
                         const PlanEdit& edit) {
  o.use_streams = streams;
  return with_plan(p, o, edit);
}

void expect_fwd_equivalence(const ConvParams& p, const ConvOptions& o,
                            unsigned seed, const char* what,
                            const PlanEdit& edit = {}) {
  ConvProblem pr(p, seed);
  core::ConvLayer branchy(p, with_streams(p, o, false, edit));
  core::ConvLayer stream(p, with_streams(p, o, true, edit));
  expect_bitwise(layer_forward(branchy, pr), layer_forward(stream, pr), what);
}

void expect_bwd_equivalence(const ConvParams& p, const ConvOptions& o,
                            unsigned seed, const char* what) {
  ConvProblem pr(p, seed);
  core::ConvLayer branchy(p, with_streams(p, o, false, {}));
  core::ConvLayer stream(p, with_streams(p, o, true, {}));
  expect_bitwise(layer_backward(branchy, pr), layer_backward(stream, pr),
                 what);
}

void expect_upd_equivalence(const ConvParams& p, const ConvOptions& o,
                            unsigned seed, const char* what,
                            const PlanEdit& edit) {
  ConvProblem pr(p, seed);
  core::ConvLayer branchy(p, with_streams(p, o, false, edit));
  core::ConvLayer stream(p, with_streams(p, o, true, edit));
  EXPECT_GT(stream.upd_stream_calls(), 0u) << what;
  expect_bitwise(layer_update(branchy, pr), layer_update(stream, pr), what);
}

PlanEdit upd_strategy_edit(UpdStrategy strategy) {
  return [strategy](core::ConvPlan& plan) { plan.upd_strategy = strategy; };
}

}  // namespace

TEST(StreamEquivalence, ForwardWithEdgeBlocks) {
  // 2x4 register blocks on a 9x9 output force q_rem > 0 and p_rem > 0
  // edge kernels into the stream.
  ConvOptions o;
  o.threads = 3;
  expect_fwd_equivalence(core::make_conv(2, 16, 32, 9, 9, 3, 3, 1), o, 11,
                         "fwd 3x3 edge blocks", [](core::ConvPlan& plan) {
                           plan.rbp = 2;
                           plan.rbq = 4;
                         });
}

TEST(StreamEquivalence, BackwardDualityStride1) {
  ConvOptions o;
  o.threads = 2;
  expect_bwd_equivalence(core::make_conv(2, 16, 32, 9, 9, 3, 3, 1), o, 12,
                         "bwd duality stride-1");
}

TEST(StreamEquivalence, Backward1x1StridedReplaysStream) {
  // R=S=1, stride 2, pad 0: the strided-scatter dual path — the stream
  // records the 1x1 kernel sequence, including the Q-remainder edge kernel
  // (Q = 29 is prime, so no register-block divides it).
  const auto p = core::make_conv(1, 16, 16, 5, 57, 1, 1, 2, 0);
  ConvOptions o;
  o.threads = 2;
  core::ConvLayer probe(p, o);
  ASSERT_EQ(probe.plan().bwd_algo, core::BwdAlgo::duality_1x1_strided);
  EXPECT_GT(probe.bwd_stream_convs(), 0u);
  expect_bwd_equivalence(p, o, 13, "bwd 1x1 strided");
}

TEST(StreamEquivalence, BackwardGemmFallbackUnaffected) {
  // R > 1 with stride > 1: Algorithm-7 GEMM fallback has no stream form;
  // stream mode must fall through to the branchy driver and still match.
  const auto p = core::make_conv(1, 16, 16, 9, 9, 3, 3, 2);
  ConvOptions o;
  o.threads = 2;
  core::ConvLayer probe(p, o);
  ASSERT_EQ(probe.plan().bwd_algo, core::BwdAlgo::gemm_fallback);
  EXPECT_EQ(probe.bwd_stream_convs(), 0u);
  expect_bwd_equivalence(p, o, 14, "bwd gemm fallback");
}

class StreamUpdEquivalence
    : public ::testing::TestWithParam<std::tuple<UpdStrategy, int>> {};

TEST_P(StreamUpdEquivalence, BitIdenticalAcrossStrategiesAndThreads) {
  const auto [strategy, threads] = GetParam();
  // 2x4 pixel blocks on a 9x9 output force upd_pb_rem_/upd_qb_rem_ > 0 so
  // the edge update kernels appear in the streams.
  ConvOptions o;
  o.threads = threads;
  expect_upd_equivalence(core::make_conv(4, 16, 32, 9, 9, 3, 3, 1), o,
                         20 + threads, core::upd_strategy_name(strategy),
                         [s = strategy](core::ConvPlan& plan) {
                           plan.upd_strategy = s;
                           plan.upd_bp = 2;
                           plan.upd_bq = 4;
                         });
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, StreamUpdEquivalence,
    ::testing::Combine(::testing::Values(UpdStrategy::task,
                                         UpdStrategy::minibatch,
                                         UpdStrategy::hybrid),
                       ::testing::Values(1, 2, 4)));

// The PR-9 plan axes — driver loop order and the JIT reduce epilogue — must
// be bitwise-neutral: every (loop order, reduce backend, stream mode)
// combination accumulates each dW block in the identical (n, pjb, qib)
// sequence, and the generated reduce kernel keeps the scalar loop's
// copy-0-seeds-then-ascending-adds contract.
class StreamUpdPlanAxes
    : public ::testing::TestWithParam<std::tuple<UpdStrategy, int>> {};

TEST_P(StreamUpdPlanAxes, LoopOrderAndReduceJitAreBitwiseNeutral) {
  const auto [strategy, threads] = GetParam();
  const auto p = core::make_conv(4, 16, 32, 9, 9, 3, 3, 1);
  ConvProblem pr(p, 50 + threads);
  ConvOptions o;
  o.threads = threads;
  const auto blocking = [s = strategy](core::ConvPlan& plan) {
    plan.upd_strategy = s;
    plan.upd_bp = 2;
    plan.upd_bq = 4;
  };

  core::ConvLayer base(p, with_streams(p, o, false, blocking));
  const auto want = layer_update(base, pr);
  const core::ConvPlan def = base.plan();

  for (const auto order :
       {core::UpdLoopOrder::task_outer, core::UpdLoopOrder::pixel_outer}) {
    for (const bool reduce_jit : {true, false}) {
      core::ConvPlan plan = def;
      plan.upd_loop_order = order;
      plan.upd_reduce_jit = reduce_jit;
      // An off-default unroll exercises a distinct generated chunk shape.
      if (reduce_jit) plan.upd_reduce_unroll = 2;
      for (const bool streams : {false, true}) {
        // One plan, resolved branchy, for both legs: the caller's stream
        // mode overrides the plan's, so the stream leg must replay streams.
        ConvOptions oo = o;
        oo.use_streams = streams;
        oo.plan = plan;
        core::ConvLayer layer(p, oo);
        const std::string what =
            std::string(core::upd_strategy_name(strategy)) + "/" +
            core::upd_loop_order_name(order) +
            (reduce_jit ? "/jit-reduce" : "/scalar-reduce") +
            (streams ? "/stream" : "/branchy");
        if (streams) EXPECT_GT(layer.upd_stream_calls(), 0u) << what;
        expect_bitwise(want, layer_update(layer, pr), what.c_str());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, StreamUpdPlanAxes,
    ::testing::Combine(::testing::Values(UpdStrategy::task,
                                         UpdStrategy::minibatch,
                                         UpdStrategy::hybrid),
                       ::testing::Values(1, 2, 4)));

TEST(StreamEquivalence, UpdateMinibatchWithIdleThreads) {
  // threads > N: idle threads record ZERO records for their private copies;
  // the reduction must still match the branchy result bit-for-bit.
  ConvOptions o;
  o.threads = 5;
  expect_upd_equivalence(core::make_conv(2, 16, 16, 6, 6, 3, 3, 1), o, 31,
                         "minibatch idle threads",
                         upd_strategy_edit(UpdStrategy::minibatch));
}

TEST(StreamEquivalence, UpdateHybridDegenerateRunsTaskStyle) {
  // N = 1 cannot form two minibatch groups: hybrid keeps its name but runs
  // (and records) task-style streams.
  ConvOptions o;
  o.threads = 4;
  const auto p = core::make_conv(1, 16, 16, 6, 6, 3, 3, 1);
  const PlanEdit hybrid = upd_strategy_edit(UpdStrategy::hybrid);
  core::ConvLayer probe(p, with_plan(p, o, hybrid));
  EXPECT_EQ(probe.plan().upd_strategy, UpdStrategy::hybrid);
  expect_upd_equivalence(p, o, 32, "hybrid degenerate", hybrid);
}

TEST(StreamEquivalence, ForwardFusedReluAndBias) {
  // Fused operators ride the stream as in-kernel ReLU or APPLY records;
  // replay must agree with the branchy driver bit-for-bit including fargs.
  for (const FusedOp op : {FusedOp::relu, FusedOp::bias,
                           FusedOp::batchnorm_relu, FusedOp::eltwise_add}) {
    const auto p = core::make_conv(2, 16, 32, 7, 7, 3, 3, 1);
    ConvProblem pr(p, 40);
    ConvOptions o;
    o.fuse = op;
    o.threads = 2;
    core::ConvLayer branchy(p, with_streams(p, o, false, {}));
    core::ConvLayer stream(p, with_streams(p, o, true, {}));

    const int kch = branchy.kb() * branchy.vlen();
    const auto bias = xconv::testing::random_vec(kch, 41);
    const auto scale = xconv::testing::random_vec(kch, 42, 0.5f, 1.5f);
    const auto shift = xconv::testing::random_vec(kch, 43);
    auto resid_b = branchy.make_output();
    auto resid_s = stream.make_output();
    for (std::size_t i = 0; i < resid_b.size(); ++i)
      resid_b.data()[i] = resid_s.data()[i] =
          static_cast<float>((i % 13)) * 0.25f - 1.0f;
    core::FusionArgs fargs;
    fargs.bias = bias.data();
    fargs.scale = scale.data();
    fargs.shift = shift.data();

    auto run = [&](core::ConvLayer& layer,
                   tensor::ActTensor& resid) -> std::vector<float> {
      auto bin = layer.make_input();
      tensor::nchw_to_blocked(pr.in.data(), bin);
      auto bwt = layer.make_weights();
      tensor::kcrs_to_blocked_fwd(pr.wt.data(), pr.p.K, pr.p.C, bwt);
      auto bout = layer.make_output();
      core::FusionArgs fa = fargs;
      fa.residual = resid.data();
      layer.forward(bin, bwt, bout, fa);
      std::vector<float> out(pr.p.output_elems());
      tensor::blocked_to_nchw(bout, out.data());
      return out;
    };
    expect_bitwise(run(branchy, resid_b), run(stream, resid_s),
                   core::fused_op_name(op));
  }
}
