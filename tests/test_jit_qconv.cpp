// JIT'ed int16 convolution microkernels (forward and weight update) vs the
// scalar references, bit for bit.
#include <gtest/gtest.h>

#include <random>

#include "jit/qconv_kernel_gen.hpp"
#include "kernels/kernel_registry.hpp"
#include "platform/cpu.hpp"
#include "test_helpers.hpp"

using namespace xconv;

namespace {

bool host_vnni() {
  return platform::max_isa() == platform::Isa::avx512_vnni;
}

std::vector<std::int16_t> random_i16(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> d(-1024, 1024);
  std::vector<std::int16_t> v(n);
  for (auto& x : v) x = static_cast<std::int16_t>(d(rng));
  return v;
}

struct QCase {
  int rbq, r, s, stride, c_blocks, flush;
  bool beta0;
  int ocs = 0;
};

void run_case(const QCase& c) {
  if (!host_vnni()) GTEST_SKIP() << "host lacks AVX512-VNNI";
  quant::QKernelDesc d;
  d.vlen = 16;
  d.rbq = c.rbq;
  d.r = c.r;
  d.s = c.s;
  d.stride_w = d.stride_h = c.stride;
  d.in_row_stride = (c.rbq * c.stride + c.s + 4) * 16;
  d.c2_iters = 8;
  d.c_blocks = c.c_blocks;
  d.in_cb_stride = static_cast<std::int64_t>(c.r + 2) * d.in_row_stride;
  d.wt_cb_stride = static_cast<std::int64_t>(c.r) * c.s * 256;
  d.flush_interval = c.flush;
  d.beta0 = c.beta0;
  d.out_col_stride = c.ocs;

  const std::size_t in_sz =
      static_cast<std::size_t>(c.c_blocks) * (c.r + 2) * d.in_row_stride;
  const std::size_t wt_sz = static_cast<std::size_t>(c.c_blocks) * c.r * c.s *
                            256;
  const int ocs = c.ocs > 0 ? c.ocs : 16;
  const auto in = random_i16(in_sz, 1);
  const auto wt = random_i16(wt_sz, 2);
  auto out_jit = xconv::testing::random_vec(
      static_cast<std::size_t>(c.rbq) * ocs, 3);
  auto out_ref = out_jit;
  const float scale = 3.14e-4f;

  auto k = jit::generate_qconv_kernel(d);
  (*k)(in.data(), wt.data(), out_jit.data(), scale);
  quant::qconv_block_scalar(d, in.data(), wt.data(), out_ref.data(), scale);
  // Identical integer arithmetic + fused flush rounding: exact match.
  for (std::size_t i = 0; i < out_ref.size(); ++i)
    ASSERT_EQ(out_ref[i], out_jit[i]) << i;
}

}  // namespace

class JitQConvSweep : public ::testing::TestWithParam<QCase> {};

TEST_P(JitQConvSweep, MatchesScalarExactly) { run_case(GetParam()); }

INSTANTIATE_TEST_SUITE_P(
    Shapes, JitQConvSweep,
    ::testing::Values(QCase{13, 3, 3, 1, 1, 64, true},
                      QCase{8, 3, 3, 1, 2, 8, false},
                      QCase{13, 1, 1, 1, 4, 64, true},
                      QCase{6, 1, 1, 2, 2, 16, true},
                      QCase{13, 1, 1, 1, 2, 5, true},  // flush !| steps
                      QCase{4, 7, 7, 2, 1, 8, true},   // r-loop eligible
                      QCase{10, 1, 1, 1, 3, 64, true, 32},  // scatter
                      QCase{1, 5, 5, 1, 1, 64, false}));

TEST(JitQConv, RejectsBadDescriptors) {
  quant::QKernelDesc d;
  d.vlen = 8;
  EXPECT_THROW(jit::generate_qconv_kernel(d), std::invalid_argument);
  d.vlen = 16;
  d.rbq = 14;  // over the JIT budget
  d.in_row_stride = 256;
  EXPECT_THROW(jit::generate_qconv_kernel(d), std::invalid_argument);
  d.rbq = 8;
  d.c_blocks = 2;  // missing strides
  EXPECT_THROW(jit::generate_qconv_kernel(d), std::invalid_argument);
}

TEST(JitQConv, KeyDistinguishesVariants) {
  quant::QKernelDesc a;
  a.rbq = 8;
  a.in_row_stride = 256;
  auto b = a;
  b.rbq = 4;
  auto c = a;
  c.beta0 = false;
  EXPECT_NE(a.key(), b.key());
  EXPECT_NE(a.key(), c.key());
  EXPECT_EQ(a.key(), a.key());
}

namespace {

struct QUpdCase {
  int bq2, stride, flush;
  bool beta0;
  int rows = 1;
};

void run_upd_case(const QUpdCase& c) {
  if (!host_vnni()) GTEST_SKIP() << "host lacks AVX512-VNNI";
  constexpr int v = 16;
  // A raw blocked input row with the layer stride, and a dense dO row;
  // both go through the library's pair interleave, as in QConvLayer.
  const int q = 2 * c.bq2;
  const std::size_t raw = static_cast<std::size_t>(q * c.stride) * v;
  const std::size_t draw = static_cast<std::size_t>(q) * v;
  const int pitch = c.bq2 * 2 * v + 32;  // interleaved row stride, padded
  const auto row = random_i16(raw * c.rows, 4);
  const auto drow = random_i16(draw * c.rows, 5);
  std::vector<std::int16_t> in(static_cast<std::size_t>(pitch) * c.rows);
  std::vector<std::int16_t> dov(in.size());
  for (int rr = 0; rr < c.rows; ++rr) {
    quant::interleave_pairs(row.data() + rr * raw, q, c.stride, v,
                            in.data() + rr * pitch);
    quant::interleave_pairs(drow.data() + rr * draw, q, 1, v,
                            dov.data() + rr * pitch);
  }

  quant::QUpdKernelDesc d;
  d.bq2 = c.bq2;
  d.rows = c.rows;
  d.in_row_stride = d.dov_row_stride = pitch;
  d.flush_interval = c.flush;
  d.beta0 = c.beta0;
  auto dw_jit = xconv::testing::random_vec(static_cast<std::size_t>(v) * v, 6);
  auto dw_ref = dw_jit;
  const float scale = 2.71e-4f;
  auto& reg = kernels::KernelRegistry::instance();
  const auto* jk = reg.qupd(d, kernels::BackendPref::jit);
  const auto* sk = reg.qupd(d, kernels::BackendPref::scalar);
  ASSERT_EQ(jk->backend(), kernels::Backend::jit);
  ASSERT_EQ(sk->backend(), kernels::Backend::scalar);
  jk->run(in.data(), dov.data(), dw_jit.data(), scale);
  sk->run(in.data(), dov.data(), dw_ref.data(), scale);
  for (std::size_t i = 0; i < dw_ref.size(); ++i)
    ASSERT_EQ(dw_ref[i], dw_jit[i]) << i;

  // With one flush at the end, the interleaved kernel computes the strided
  // integer sum exactly: check the layout against the raw rows.
  if (c.beta0 && c.flush >= c.bq2 * c.rows) {
    for (int ch = 0; ch < v; ++ch)
      for (int k = 0; k < v; ++k) {
        std::int32_t acc = 0;
        for (int rr = 0; rr < c.rows; ++rr)
          for (int px = 0; px < q; ++px)
            acc += static_cast<std::int32_t>(
                       row[rr * raw + (px * c.stride) * v + ch]) *
                   drow[rr * draw + px * v + k];
        ASSERT_EQ(dw_ref[ch * v + k], static_cast<float>(acc) * scale)
            << ch << "," << k;
      }
  }
}

}  // namespace

class JitQUpdSweep : public ::testing::TestWithParam<QUpdCase> {};

TEST_P(JitQUpdSweep, MatchesScalarExactly) { run_upd_case(GetParam()); }

INSTANTIATE_TEST_SUITE_P(
    Shapes, JitQUpdSweep,
    ::testing::Values(QUpdCase{1, 1, 64, true}, QUpdCase{1, 2, 1, false},
                      QUpdCase{3, 1, 2, false},   // flush !| steps
                      QUpdCase{7, 2, 64, true},   // strided pairs
                      QUpdCase{14, 1, 8, true},   // several flushes
                      QUpdCase{14, 1, 64, false},
                      QUpdCase{28, 2, 5, false},
                      QUpdCase{56, 1, 64, true},
                      QUpdCase{3, 1, 64, true, 7},   // rows, one flush
                      QUpdCase{7, 2, 8, false, 4},   // flush spans rows
                      QUpdCase{14, 1, 64, true, 9}));

TEST(JitQConv, QUpdRejectsBadDescriptors) {
  quant::QUpdKernelDesc d;
  d.isa = platform::Isa::avx512;  // no vpdpwssd
  EXPECT_THROW(jit::generate_qupd_kernel(d), std::invalid_argument);
  d.isa = platform::Isa::avx512_vnni;
  d.bq2 = 0;
  EXPECT_THROW(jit::generate_qupd_kernel(d), std::invalid_argument);
}

TEST(JitQConv, QUpdKeyDistinguishesVariants) {
  quant::QUpdKernelDesc a;
  a.bq2 = 4;
  auto b = a;
  b.beta0 = false;
  auto c = a;
  c.isa = platform::Isa::scalar;
  EXPECT_NE(a.key(), b.key());
  EXPECT_NE(a.key(), c.key());
  EXPECT_EQ(a.key(), a.key());
}
