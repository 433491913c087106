// Shared helpers for the xconv test suite.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <random>
#include <vector>

#include "baselines/naive_conv.hpp"
#include "core/conv_layer.hpp"
#include "tensor/norms.hpp"
#include "tensor/transform.hpp"

namespace xconv::testing {

inline std::vector<float> random_vec(std::size_t n, unsigned seed,
                                     float lo = -1.0f, float hi = 1.0f) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(lo, hi);
  std::vector<float> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

/// Dense random test problem for one conv layer.
struct ConvProblem {
  core::ConvParams p;
  std::vector<float> in, wt, dout;

  explicit ConvProblem(const core::ConvParams& params, unsigned seed = 42)
      : p(params),
        in(random_vec(p.input_elems(), seed)),
        wt(random_vec(p.weight_elems(), seed + 1)),
        dout(random_vec(p.output_elems(), seed + 2)) {}
};

/// Relative-error check tolerant to fp32 reassociation.
inline void expect_close(const std::vector<float>& ref,
                         const std::vector<float>& got, double tol = 2e-3,
                         const char* what = "") {
  ASSERT_EQ(ref.size(), got.size()) << what;
  const tensor::ErrorNorms e =
      tensor::compare(ref.data(), got.data(), ref.size());
  EXPECT_LT(e.l2_rel, tol) << what << " " << e.to_string();
}

/// Exact (bit-identical) comparison — what stream replay guarantees vs the
/// branchy drivers: the same kernel-call sequence, hence the same floats.
inline void expect_bitwise(const std::vector<float>& a,
                           const std::vector<float>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0) return;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << what << " diverges at element " << i;
}

/// Edits to a layer's default plan; how tests pin planning decisions.
using PlanEdit = std::function<void(core::ConvPlan&)>;

/// `o` with `edit` applied to the plan a layer built from `o` resolves by
/// default, set as o.plan (unchanged `o` when `edit` is empty).
inline core::ConvOptions with_plan(const core::ConvParams& p,
                                   core::ConvOptions o, const PlanEdit& edit) {
  if (!edit) return o;
  core::ConvPlan plan = core::ConvLayer(p, o).plan();
  edit(plan);
  o.plan = plan;
  return o;
}

/// Run ConvLayer forward on dense data; returns dense output.
inline std::vector<float> layer_forward(core::ConvLayer& layer,
                                        const ConvProblem& pr) {
  auto bin = layer.make_input();
  tensor::nchw_to_blocked(pr.in.data(), bin);
  auto bwt = layer.make_weights();
  tensor::kcrs_to_blocked_fwd(pr.wt.data(), pr.p.K, pr.p.C, bwt);
  auto bout = layer.make_output();
  layer.forward(bin, bwt, bout);
  std::vector<float> out(pr.p.output_elems());
  tensor::blocked_to_nchw(bout, out.data());
  return out;
}

inline std::vector<float> layer_backward(core::ConvLayer& layer,
                                         const ConvProblem& pr) {
  auto bdout = layer.make_output();
  tensor::nchw_to_blocked(pr.dout.data(), bdout);
  auto bwt = layer.make_weights();
  tensor::kcrs_to_blocked_fwd(pr.wt.data(), pr.p.K, pr.p.C, bwt);
  auto bdin = layer.make_input();
  layer.backward(bdout, bwt, bdin);
  std::vector<float> din(pr.p.input_elems());
  tensor::blocked_to_nchw(bdin, din.data());
  return din;
}

inline std::vector<float> layer_update(core::ConvLayer& layer,
                                       const ConvProblem& pr) {
  auto bin = layer.make_input();
  tensor::nchw_to_blocked(pr.in.data(), bin);
  auto bdout = layer.make_output();
  tensor::nchw_to_blocked(pr.dout.data(), bdout);
  auto bdwt = layer.make_weights();
  layer.update(bin, bdout, bdwt);
  std::vector<float> dwt(pr.p.weight_elems());
  tensor::blocked_fwd_to_kcrs(bdwt, pr.p.K, pr.p.C, dwt.data());
  return dwt;
}

inline std::vector<float> naive_fwd(const ConvProblem& pr) {
  std::vector<float> out(pr.p.output_elems());
  baselines::naive_forward(pr.p, pr.in.data(), pr.wt.data(), out.data());
  return out;
}
inline std::vector<float> naive_bwd(const ConvProblem& pr) {
  std::vector<float> din(pr.p.input_elems());
  baselines::naive_backward(pr.p, pr.dout.data(), pr.wt.data(), din.data());
  return din;
}
inline std::vector<float> naive_upd(const ConvProblem& pr) {
  std::vector<float> dwt(pr.p.weight_elems());
  baselines::naive_update(pr.p, pr.in.data(), pr.dout.data(), dwt.data());
  return dwt;
}

}  // namespace xconv::testing
