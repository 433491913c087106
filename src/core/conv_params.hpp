// Convolution problem description shared by every implementation in the repo
// (direct JIT kernels, baselines, quantized kernels, GxM nodes).
//
// Naming follows the paper (Section II): input activations are N x C x H x W,
// output activations N x K x P x Q, weights K x C x R x S; `stride` and
// zero-padding relate the spatial domains.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace xconv::core {

struct ConvParams {
  int N = 1;  ///< minibatch
  int C = 1;  ///< input feature maps
  int K = 1;  ///< output feature maps
  int H = 1;  ///< input height
  int W = 1;  ///< input width
  int R = 1;  ///< filter height
  int S = 1;  ///< filter width
  int stride_h = 1;
  int stride_w = 1;
  int pad_h = 0;  ///< zero padding applied symmetrically in H
  int pad_w = 0;  ///< zero padding applied symmetrically in W

  /// Output spatial dimensions.
  int P() const { return (H + 2 * pad_h - R) / stride_h + 1; }
  int Q() const { return (W + 2 * pad_w - S) / stride_w + 1; }

  /// Multiply-add count x2, the FLOP convention used by the paper's GFLOPS.
  std::size_t flops() const {
    return 2ull * N * K * C * static_cast<std::size_t>(P()) * Q() * R * S;
  }

  /// Activation/weight element counts (logical, unpadded).
  std::size_t input_elems() const { return 1ull * N * C * H * W; }
  std::size_t output_elems() const { return 1ull * N * K * P() * Q(); }
  std::size_t weight_elems() const { return 1ull * K * C * R * S; }

  /// Validate invariants (positive dims, output domain non-empty); throws
  /// std::invalid_argument with a description on violation.
  void validate() const;

  /// The duality transform (Section II-I): backward propagation of this
  /// layer is a forward convolution of dO with these params (C and K
  /// swapped, input = the P x Q output domain, stride 1, pad' = R-1-pad).
  /// For a 1x1 layer with stride > 1 they describe the dense 1x1 conv whose
  /// results are scattered back by the stride. Throws
  /// std::invalid_argument when pad > R-1 (no dual exists).
  ConvParams dual() const;

  bool operator==(const ConvParams&) const = default;

  std::string to_string() const;
};

/// Convenience builder used throughout tests/benches.
ConvParams make_conv(int N, int C, int K, int H, int W, int R, int S,
                     int stride = 1, int pad = -1 /* -1 = "same"-ish R/2 */);

}  // namespace xconv::core
