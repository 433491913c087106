// Reduced-precision int16 kernels (Section II-K): quantization bounds, exact
// scalar/JIT (VNNI) agreement, registry-served kernels, and QConvLayer passes
// vs fp32 within the expected quantization error.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>

#include "platform/envparse.hpp"
#include "quant/bfloat16.hpp"
#include "quant/qconv_layer.hpp"
#include "quant/quantize.hpp"
#include "test_helpers.hpp"

using namespace xconv;
using xconv::testing::ConvProblem;
using xconv::testing::random_vec;

TEST(Quantize, ScaleMapsAmaxToQmax) {
  std::vector<float> v = {0.5f, -2.0f, 1.0f};
  const float s = quant::compute_scale(v.data(), v.size());
  EXPECT_NEAR(2.0f / s, quant::kQMax, 1e-3);
  EXPECT_EQ(quant::quantize_one(-2.0f, s), -quant::kQMax);
}

TEST(Quantize, ZeroTensorScaleIsOne) {
  std::vector<float> v(16, 0.0f);
  EXPECT_EQ(quant::compute_scale(v.data(), v.size()), 1.0f);
}

TEST(Quantize, ExternalScaleClampsToHeadroomRange) {
  // Regression: quantize_one used to clamp to the full int16 range
  // [-32768, 32767]. With an external/calibrated scale (not derived from
  // this tensor's amax) |q| could exceed kQMax, silently voiding the int32
  // accumulation-chain overflow guarantee (paper Section II-K). The clamp
  // must be the headroom-limited ±kQMax.
  const float scale = 0.001f;
  EXPECT_EQ(quant::quantize_one(5.0f, scale), quant::kQMax);    // q = 5000
  EXPECT_EQ(quant::quantize_one(-5.0f, scale), -quant::kQMax);
  EXPECT_EQ(quant::quantize_one(100.0f, scale), quant::kQMax);  // q = 100000
  EXPECT_EQ(quant::quantize_one(-100.0f, scale), -quant::kQMax);
  // In-range values are untouched by the clamp.
  EXPECT_EQ(quant::quantize_one(0.5f, scale), 500);
  EXPECT_EQ(quant::quantize_one(-1.024f, scale), -quant::kQMax);
}

TEST(Quantize, RoundTripErrorBounded) {
  const auto v = random_vec(4096, 3);
  const float s = quant::compute_scale(v.data(), v.size());
  double maxerr = 0;
  for (float x : v) {
    const float back = quant::quantize_one(x, s) * s;
    maxerr = std::max(maxerr, static_cast<double>(std::abs(back - x)));
  }
  EXPECT_LE(maxerr, 0.5001 * s);  // round-to-nearest half-ulp bound
}

TEST(Quantize, ParallelScaleScanMatchesSerial) {
  // compute_scale switches to an OpenMP max-reduction above 64K elements;
  // fp32 max is associative, so the parallel scan must agree bitwise with a
  // serial amax over the same data, wherever the amax lands.
  for (const unsigned seed : {1u, 2u, 3u}) {
    auto v = random_vec((1u << 16) + 4097, seed, -3.0f, 3.0f);
    v[seed * 20011 % v.size()] = seed % 2 ? 7.25f : -7.25f;  // known amax
    float amax = 0.0f;
    for (const float x : v) amax = std::max(amax, std::abs(x));
    const float want = amax / static_cast<float>(quant::kQMax);
    EXPECT_EQ(quant::compute_scale(v.data(), v.size()), want);
  }
}

TEST(Bfloat16, RoundIsExactOnRepresentableValues) {
  for (const float x : {0.0f, -0.0f, 1.0f, -1.0f, 0.5f, 1.5f, 256.0f,
                        1.0078125f /* 1 + 2^-7 */, -3.140625f}) {
    EXPECT_EQ(quant::bf16_round(x), x) << x;
  }
}

TEST(Bfloat16, RoundErrorWithinHalfUlpAndTiesToEven) {
  const auto v = random_vec(8192, 9, -10.0f, 10.0f);
  for (const float x : v) {
    const float d = quant::bf16_round(x);
    // 7 stored mantissa bits: RNE absolute error <= 2^-8 * 2^exp <= |x|/256.
    EXPECT_LE(std::abs(d - x), std::abs(x) / 256.0f + 1e-30f) << x;
  }
  // Ties round to the even bf16 neighbour: 1 + 2^-8 is exactly between
  // 1.0 (even mantissa) and 1 + 2^-7 (odd); 1 + 3*2^-8 between 1 + 2^-7
  // (odd) and 1 + 2^-6 (even).
  EXPECT_EQ(quant::bf16_round(1.00390625f), 1.0f);
  EXPECT_EQ(quant::bf16_round(1.01171875f), 1.015625f);
}

TEST(Bfloat16, SpecialsSurviveRounding) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(quant::bf16_round(inf), inf);
  EXPECT_EQ(quant::bf16_round(-inf), -inf);
  EXPECT_TRUE(std::isnan(quant::bf16_round(
      std::numeric_limits<float>::quiet_NaN())));
  // A NaN whose payload lives only in the low 16 bits must stay a NaN
  // (naive truncation would produce +inf).
  std::uint32_t u = 0x7f800001u;
  float nan_low;
  std::memcpy(&nan_low, &u, sizeof(nan_low));
  EXPECT_TRUE(std::isnan(quant::bf16_round(nan_low)));
  // Array form applies the same rounding elementwise.
  std::vector<float> a = {1.00390625f, -2.0f, 0.25f};
  quant::bf16_round(a.data(), a.size());
  EXPECT_EQ(a[0], 1.0f);
  EXPECT_EQ(a[1], -2.0f);
  EXPECT_EQ(a[2], 0.25f);
}

TEST(Quantize, WeightPairInterleave) {
  const auto p = core::make_conv(1, 32, 32, 4, 4, 3, 3, 1);
  core::ConvLayer layer(p);
  auto wt = layer.make_weights();
  const auto dense = random_vec(p.weight_elems(), 4);
  tensor::kcrs_to_blocked_fwd(dense.data(), p.K, p.C, wt);
  auto q = quant::quantize_wt(wt);
  // Pair (c0, c1) of output lane k sits at consecutive int16 slots.
  for (int c2 = 0; c2 < 8; ++c2)
    for (int k = 0; k < 16; ++k) {
      EXPECT_EQ(q.el(0, 0, 1, 1, c2, k, 0),
                quant::quantize_one(wt.el(0, 0, 1, 1, 2 * c2, k), q.scale));
      EXPECT_EQ(q.el(0, 0, 1, 1, c2, k, 1),
                quant::quantize_one(wt.el(0, 0, 1, 1, 2 * c2 + 1, k), q.scale));
    }
}

namespace {

struct QRun {
  std::vector<float> fwd, bwd, upd;
};

// `jit` picks the generated kernels (needs an AVX512-VNNI host); otherwise
// the scalar reference kernels.
QRun run_qconv(const core::ConvParams& p, const ConvProblem& pr, bool jit,
               int flush) {
  core::ConvLayer ref_layer(p);  // for tensor factories
  auto bin = ref_layer.make_input();
  tensor::nchw_to_blocked(pr.in.data(), bin);
  auto bwt = ref_layer.make_weights();
  tensor::kcrs_to_blocked_fwd(pr.wt.data(), p.K, p.C, bwt);
  auto bdout = ref_layer.make_output();
  tensor::nchw_to_blocked(pr.dout.data(), bdout);

  quant::QConvLayer q(p, 1, flush, platform::Isa::avx512_vnni,
                      jit ? kernels::BackendPref::jit
                          : kernels::BackendPref::scalar);
  const auto qin = quant::quantize_act(bin);
  const auto qwt = quant::quantize_wt(bwt);
  const auto qdout = quant::quantize_act(bdout);
  const auto qwt_bwd = quant::quantize_wt_bwd(bwt);

  QRun out;
  auto bout = ref_layer.make_output();
  q.forward(qin, qwt, bout);
  out.fwd.resize(p.output_elems());
  tensor::blocked_to_nchw(bout, out.fwd.data());

  auto bdin = ref_layer.make_input();
  q.backward(qdout, qwt_bwd, bdin);
  out.bwd.resize(p.input_elems());
  tensor::blocked_to_nchw(bdin, out.bwd.data());

  auto bdwt = ref_layer.make_weights();
  q.update(qin, qdout, bdwt);
  out.upd.resize(p.weight_elems());
  tensor::blocked_fwd_to_kcrs(bdwt, p.K, p.C, out.upd.data());
  return out;
}

}  // namespace

class QConvShapes : public ::testing::TestWithParam<core::ConvParams> {};

TEST_P(QConvShapes, ScalarTracksFp32WithinQuantError) {
  const auto p = GetParam();
  ConvProblem pr(p, 21);
  const auto q = run_qconv(p, pr, /*jit=*/false, 8);
  // Quantization error: relative L2 of a few percent for 10-bit mantissas.
  xconv::testing::expect_close(xconv::testing::naive_fwd(pr), q.fwd, 2e-2,
                               "q fwd");
  xconv::testing::expect_close(xconv::testing::naive_bwd(pr), q.bwd, 2e-2,
                               "q bwd");
  xconv::testing::expect_close(xconv::testing::naive_upd(pr), q.upd, 2e-2,
                               "q upd");
}

TEST_P(QConvShapes, VnniMatchesScalarExactly) {
  if (platform::max_isa() != platform::Isa::avx512_vnni)
    GTEST_SKIP() << "host lacks AVX512-VNNI";
  const auto p = GetParam();
  ConvProblem pr(p, 22);
  const auto a = run_qconv(p, pr, false, 8);
  const auto b = run_qconv(p, pr, true, 8);
  // Same integer arithmetic and flush points -> bit-identical fp32 results.
  EXPECT_EQ(a.fwd, b.fwd);
  EXPECT_EQ(a.bwd, b.bwd);
  EXPECT_EQ(a.upd, b.upd);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QConvShapes,
    ::testing::Values(core::make_conv(1, 32, 32, 8, 8, 3, 3, 1),
                      core::make_conv(2, 16, 32, 7, 9, 1, 1, 1, 0),
                      core::make_conv(1, 32, 16, 8, 8, 1, 1, 2, 0),
                      core::make_conv(1, 48, 32, 7, 7, 3, 3, 1),
                      core::make_conv(2, 16, 16, 9, 9, 5, 5, 1)));

TEST(QConv, InterleavePairsZeroPairsOddFinalPixel) {
  // vlen 2, stride 2: pixels 0, 1, 2 sit at elements 0, 4, 8.
  std::vector<std::int16_t> src(12);
  for (int i = 0; i < 12; ++i) src[i] = static_cast<std::int16_t>(i + 1);
  std::vector<std::int16_t> dst(8, -1);
  quant::interleave_pairs(src.data(), 3, 2, 2, dst.data());
  EXPECT_EQ(dst, (std::vector<std::int16_t>{1, 5, 2, 6, 9, 0, 10, 0}));
}

namespace {
void strided_update_case(const core::ConvParams& p) {
  ConvProblem pr(p, 26);
  core::ConvLayer ref_layer(p);
  auto bin = ref_layer.make_input();
  tensor::nchw_to_blocked(pr.in.data(), bin);
  auto bdout = ref_layer.make_output();
  tensor::nchw_to_blocked(pr.dout.data(), bdout);
  const auto qin = quant::quantize_act(bin);
  const auto qdout = quant::quantize_act(bdout);
  std::vector<std::vector<float>> upd;
  for (const auto pref :
       {kernels::BackendPref::scalar, kernels::BackendPref::jit}) {
    if (pref == kernels::BackendPref::jit &&
        platform::max_isa() != platform::Isa::avx512_vnni)
      break;
    quant::QConvLayer q(p, 1, 8, platform::Isa::avx512_vnni, pref);
    auto bdwt = ref_layer.make_weights();
    q.update(qin, qdout, bdwt);
    upd.emplace_back(p.weight_elems());
    tensor::blocked_fwd_to_kcrs(bdwt, p.K, p.C, upd.back().data());
  }
  xconv::testing::expect_close(xconv::testing::naive_upd(pr), upd[0], 2e-2,
                               "strided upd");
  if (upd.size() == 2) EXPECT_EQ(upd[0], upd[1]);
}
}  // namespace

TEST(QConv, StridedUpdateUsesEveryColumnPhase) {
  // 3x3 stride 2: taps s = 0, 1, 2 read input column phases 0, 1, 2 of the
  // 2*stride = 4 the update interleaves (bwd is unsupported for this shape).
  // 11x11 gives an even output width, 9x9 an odd one (zero-paired pixel).
  for (const int hw : {11, 9}) {
    SCOPED_TRACE(hw);
    strided_update_case(core::make_conv(1, 16, 16, hw, hw, 3, 3, 2));
  }
}

TEST(QConv, SecondLayerOfSameShapeAddsOnlyRegistryHits) {
  const auto p = core::make_conv(1, 32, 32, 8, 8, 3, 3, 1);
  ConvProblem pr(p, 25);
  run_qconv(p, pr, /*jit=*/false, 8);  // warm the registry
  auto& reg = kernels::KernelRegistry::instance();
  const std::size_t size = reg.size();
  const auto misses = reg.stats().misses;
  const auto hits = reg.stats().hits;
  run_qconv(p, pr, /*jit=*/false, 8);
  EXPECT_EQ(reg.size(), size);
  EXPECT_EQ(reg.stats().misses, misses);
  EXPECT_GT(reg.stats().hits, hits);
}

namespace {
// Sets an env var for one scope and restores the caller's value after, so a
// lane that runs the suite under XCONV_BACKEND/XCONV_ISA keeps its setting.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = platform::env::get(name)) old_ = old;
    if (value != nullptr)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~ScopedEnv() {
    if (old_.empty())
      ::unsetenv(name_);
    else
      ::setenv(name_, old_.c_str(), 1);
  }

 private:
  const char* name_;
  std::string old_;
};

// Backend of the kernels a default-configured layer's forward pass runs.
std::optional<kernels::Backend> default_layer_backend(
    const core::ConvParams& p) {
  core::ConvLayer ref_layer(p);
  auto out = ref_layer.make_output();
  quant::QConvLayer q(p, 1);
  EXPECT_FALSE(q.backend().has_value());
  q.forward(quant::quantize_act(ref_layer.make_input()),
            quant::quantize_wt(ref_layer.make_weights()), out);
  return q.backend();
}
}  // namespace

TEST(QConv, EnvScalarBackendOrIsaClampYieldsScalarKernels) {
  const auto p = core::make_conv(1, 16, 16, 8, 8, 3, 3, 1);
  {
    const ScopedEnv backend("XCONV_BACKEND", "scalar");
    EXPECT_EQ(default_layer_backend(p), kernels::Backend::scalar);
  }
  {
    const ScopedEnv isa("XCONV_ISA", "avx512");
    EXPECT_EQ(default_layer_backend(p), kernels::Backend::scalar);
  }
  // Unclamped on a VNNI host the layer serves generated kernels.
  const ScopedEnv backend("XCONV_BACKEND", nullptr);
  const ScopedEnv isa("XCONV_ISA", nullptr);
  if (platform::max_isa() == platform::Isa::avx512_vnni)
    EXPECT_EQ(default_layer_backend(p), kernels::Backend::jit);
}

TEST(QConv, FlushIntervalDoesNotChangeResultMuch) {
  // Different chain restrictions reassociate the integer sums; results agree
  // to fp32 rounding (the int32 partial sums are exact, only the fp32
  // accumulation order changes).
  const auto p = core::make_conv(1, 32, 32, 8, 8, 3, 3, 1);
  ConvProblem pr(p, 23);
  const auto a = run_qconv(p, pr, false, 2);
  const auto b = run_qconv(p, pr, false, 64);
  xconv::testing::expect_close(a.fwd, b.fwd, 1e-5, "flush intervals");
}

TEST(QConv, UnsupportedStridedNon1x1BackwardThrows) {
  const auto p = core::make_conv(1, 16, 16, 9, 9, 3, 3, 2);
  quant::QConvLayer q(p, 1, 8);
  core::ConvLayer ref_layer(p);
  auto bdout = ref_layer.make_output();
  auto bwt = ref_layer.make_weights();
  const auto qdout = quant::quantize_act(bdout);
  const auto qwt_bwd = quant::quantize_wt_bwd(bwt);
  auto bdin = ref_layer.make_input();
  EXPECT_THROW(q.backward(qdout, qwt_bwd, bdin), std::invalid_argument);
}

TEST(QConv, BackwardPadBeyondFilterThrowsLikeFp32) {
  // pad 1 on a 1x1 filter has no duality transform (pad' = R-1-pad < 0):
  // int16 backward must reject it the way fp32 layer construction does.
  const auto p = core::make_conv(1, 16, 16, 8, 8, 1, 1, 1, 1);
  EXPECT_THROW(core::ConvLayer{p}, std::invalid_argument);
  core::ConvOptions o;
  o.fwd_only = true;  // tensors only: a forward-only layer has no dual
  core::ConvLayer ref_layer(p, o);
  quant::QConvLayer q(p, 1);
  auto bdout = ref_layer.make_output();
  auto bwt = ref_layer.make_weights();
  const auto qdout = quant::quantize_act(bdout);
  const auto qwt_bwd = quant::quantize_wt_bwd(bwt);
  auto bdin = ref_layer.make_input();
  EXPECT_THROW(q.backward(qdout, qwt_bwd, bdin), std::invalid_argument);
}

TEST(QConv, BackwardRequiresDualWeights) {
  const auto p = core::make_conv(1, 32, 16, 8, 8, 1, 1, 1, 0);
  quant::QConvLayer q(p);
  core::ConvLayer ref_layer(p);
  auto bdout = ref_layer.make_output();
  auto bwt = ref_layer.make_weights();
  const auto qdout = quant::quantize_act(bdout);
  const auto qwt_fwd = quant::quantize_wt(bwt);  // wrong form
  auto bdin = ref_layer.make_input();
  EXPECT_THROW(q.backward(qdout, qwt_fwd, bdin), std::invalid_argument);
}

TEST(QConv, OddQUpdateTailHandled) {
  const auto p = core::make_conv(1, 16, 16, 7, 7, 3, 3, 1);  // Q = 7, odd
  ConvProblem pr(p, 24);
  const auto q = run_qconv(p, pr, false, 8);
  xconv::testing::expect_close(xconv::testing::naive_upd(pr), q.upd, 2e-2,
                               "odd-Q upd");
}
