// Int16 convolution layer (paper Section II-K): forward, backward (duality)
// and weight update with int16 inputs, int32 on-chip accumulation and fp32
// results. Mirrors ConvLayer's structure with a simpler driver (no kernel
// streams — the paper evaluates the reduced-precision kernels standalone).
//
// Supported shapes match what Figure 8 benchmarks (ResNet-50 layers 2-20):
// stride 1 (any R, S) and 1x1 stride > 1. The backward pass uses the same
// duality transforms as fp32; update pre-interleaves input and dO pixel
// pairs — the "transpose upfront" overhead the paper cites for KNM's
// 4FMA/4VNNIW. Kernels come from kernels::KernelRegistry (generated VNNI
// code, or the scalar reference), resolved like ConvOptions resolves fp32
// kernels: an ISA tier (default effective_isa(), which honors XCONV_ISA) and
// a backend preference (default XCONV_BACKEND).
#pragma once

#include <optional>

#include "core/conv_params.hpp"
#include "kernels/kernel_registry.hpp"
#include "platform/cpu.hpp"
#include "quant/qconv_kernels.hpp"
#include "quant/quantize.hpp"
#include "tensor/layout.hpp"

namespace xconv::quant {

class QConvLayer {
 public:
  explicit QConvLayer(
      const core::ConvParams& p, int threads = 0, int flush_interval = 64,
      platform::Isa isa = platform::effective_isa(),
      kernels::BackendPref backend = kernels::backend_pref_from_env());

  const core::ConvParams& params() const { return p_; }
  /// Backend (jit or scalar) of the int16 kernels the last forward() or
  /// backward() ran; empty before the first call.
  std::optional<kernels::Backend> backend() const { return ran_; }

  /// out (fp32 blocked, same geometry as ConvLayer::make_output) =
  /// conv(qin, qwt) * qin.scale * qwt.scale.
  void forward(const QActTensor& qin, const QWtTensor& qwt,
               tensor::ActTensor& out);

  /// grad_in (fp32) from quantized grad_out and *backward-dual* quantized
  /// weights (quantize_wt_bwd). Throws for unsupported strided non-1x1.
  void backward(const QActTensor& qgrad_out, const QWtTensor& qwt_bwd,
                tensor::ActTensor& grad_in);

  /// grad_wt (fp32 forward-form) from quantized input and grad_out.
  void update(const QActTensor& qin, const QActTensor& qgrad_out,
              tensor::WtTensor& grad_wt);

 private:
  core::ConvParams p_;
  int threads_ = 1;
  int vlen_ = 16;
  int cb_ = 1, kb_ = 1;
  int flush_ = 8;
  platform::Isa isa_;
  kernels::BackendPref backend_;
  std::optional<kernels::Backend> ran_;

  void forward_generic(const QActTensor& qin, const QWtTensor& qwt,
                       tensor::ActTensor& out, const core::ConvParams& p,
                       bool scatter_strided);
};

}  // namespace xconv::quant
