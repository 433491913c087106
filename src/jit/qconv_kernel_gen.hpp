// Runtime generator for the int16 forward-convolution microkernel (paper
// Section II-K: "All of the techniques presented above have been included in
// kernels which leverage these type of instructions").
//
// Same blocking as the fp32 kernel, with:
//   * vpdpwssd with an EVEX embedded-broadcast memory operand — one
//     instruction per 32 int16 MACs (the KNM 4VNNIW throughput property),
//   * per-pixel int32 accumulators flushed into fp32 accumulators every
//     `flush_interval` channel-pair steps (the restricted accumulation
//     chain), via vcvtdq2ps + vfmadd231ps against a broadcast scale.
//
// ABI: (const int16_t* in, const int16_t* wt, float* out,
//       const float* scale_ptr).
// The scale is read at runtime so quantization scales may change every
// training iteration without re-JIT-ing.
#pragma once

#include <memory>
#include <string>

#include "jit/code_buffer.hpp"
#include "platform/cpu.hpp"
#include "quant/qconv_kernels.hpp"

namespace xconv::jit {

/// Shared int16 ABI: (a, b, out, &scale) — fwd reads (in, wt), upd reads the
/// pair-interleaved (in, dO) and accumulates into dW.
using qconv_fn = void (*)(const std::int16_t* a, const std::int16_t* b,
                          float* out, const float* scale);

template <class Desc>
class QKernel {
 public:
  QKernel(Desc desc, CodeBuffer buf)
      : desc_(desc), buf_(std::move(buf)), fn_(buf_.entry<qconv_fn>()) {}

  void operator()(const std::int16_t* a, const std::int16_t* b, float* out,
                  float scale) const {
    fn_(a, b, out, &scale);
  }
  const Desc& desc() const { return desc_; }
  std::size_t code_size() const { return buf_.size(); }
  const std::uint8_t* code() const { return buf_.data(); }

 private:
  Desc desc_;
  CodeBuffer buf_;
  qconv_fn fn_;
};

using QConvKernel = QKernel<quant::QKernelDesc>;
using QUpdKernel = QKernel<quant::QUpdKernelDesc>;

/// Emit and finalize an int16 forward microkernel. Throws
/// std::invalid_argument for unsupported descriptors (isa below
/// avx512_vnni, vlen != 16, rbq > 13).
std::unique_ptr<QConvKernel> generate_qconv_kernel(
    const quant::QKernelDesc& desc);

/// Emit and finalize an int16 weight-update microkernel: bq2 pair-steps,
/// each one 64-byte dO load plus one vpdpwssd (embedded dword broadcast of
/// the interleaved input pair) per channel row; the 16 int32 accumulators
/// stay in zmm0..15 and every flush adds them into dW in memory
/// (vcvtdq2ps + vfmadd231ps). Same throw contract as the forward generator.
std::unique_ptr<QUpdKernel> generate_qupd_kernel(
    const quant::QUpdKernelDesc& desc);

}  // namespace xconv::jit
