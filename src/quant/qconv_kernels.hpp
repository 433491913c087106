// Int16 convolution block kernels (paper Section II-K): int16 x int16
// products accumulated into int32 lanes (vpdpwssd semantics), flushed into an
// fp32 accumulator every `flush_interval` channel-pair steps (the restricted
// accumulation chain). Each family is a runtime-generated AVX512-VNNI kernel
// (jit/qconv_kernel_gen.hpp) plus the portable scalar reference below, with
// bit-identical integer arithmetic; both are resolved through
// kernels::KernelRegistry, so tests can require exact equality between them.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

#include "platform/cpu.hpp"

namespace xconv::quant {

struct QKernelDesc {
  /// ISA the kernel is resolved for: the JIT needs avx512_vnni, anything
  /// lower resolves to the scalar reference.
  platform::Isa isa = platform::Isa::avx512_vnni;
  int vlen = 16;           ///< output lanes (16 for AVX-512)
  int rbq = 1;             ///< output pixels accumulated in registers
  int r = 1, s = 1;
  int stride_w = 1, stride_h = 1;
  int in_row_stride = 0;   ///< int16 elements between input rows
  int out_col_stride = 0;  ///< fp32 elements between output pixels; 0 = vlen
                           ///< (dense). > vlen scatters (strided 1x1 bwd).
  int c2_iters = 8;        ///< channel-pair steps per (r, s) tap (= vlen/2)
  int c_blocks = 1;        ///< input feature blocks reduced in-kernel
  std::int64_t in_cb_stride = 0;
  std::int64_t wt_cb_stride = 0;
  int flush_interval = 64;  ///< int32->fp32 flush period, in pair-steps
                           ///< (restricted chain; 64 is overflow-safe
                           ///< at kQMax=1024: 64*2*2^20 < 2^31)
  bool beta0 = true;       ///< overwrite out (single-shot kernels)

  std::string key() const;  ///< cache key (all fields participate)
  auto operator<=>(const QKernelDesc&) const = default;
};

/// out[q][k] (+)= scale * sum int16 products, for q in [0, rbq).
/// `out` points at the first pixel's fp32 vector (dense, vlen stride).
void qconv_block_scalar(const QKernelDesc& d, const std::int16_t* in,
                        const std::int16_t* wt, float* out, float scale);

/// Weight-update int16 block kernel: dW block (v x v fp32) += `rows` rows
/// of bq2 pixel pairs. Both operands are pair-interleaved upfront
/// (QConvLayer::update): `in` as [q2][c][2] (channel c of the pair's two
/// pixels side by side) and `dov` as [q2][k][2], so every step is one dword
/// broadcast per channel row. The accumulation chain runs across rows.
struct QUpdKernelDesc {
  platform::Isa isa = platform::Isa::avx512_vnni;
  int vlen = 16;
  int bq2 = 1;             ///< pixel *pairs* accumulated per row
  int rows = 1;            ///< rows covered per invocation
  int in_row_stride = 0;   ///< int16 elements between interleaved input rows
  int dov_row_stride = 0;  ///< int16 elements between interleaved dO rows
  int flush_interval = 64;
  bool beta0 = true;

  std::string key() const;
  auto operator<=>(const QUpdKernelDesc&) const = default;
};

void qupd_block_scalar(const QUpdKernelDesc& d, const std::int16_t* in,
                       const std::int16_t* dov, float* dw, float scale);

/// Pair-interleave `pixels` pixels of one blocked int16 row, `stride` pixels
/// apart (vlen channels each): pair j takes pixels 2j and 2j+1 and writes
/// [j][c][2] into `dst` — the layout qupd kernels read for either operand.
/// An odd final pixel is paired with zeros.
void interleave_pairs(const std::int16_t* src, int pixels, int stride,
                      int vlen, std::int16_t* dst);

}  // namespace xconv::quant
