#include "core/conv_params.hpp"

#include <sstream>

namespace xconv::core {

void ConvParams::validate() const {
  auto fail = [this](const char* what) {
    throw std::invalid_argument(std::string("ConvParams: ") + what + " in " +
                                to_string());
  };
  if (N < 1 || C < 1 || K < 1 || H < 1 || W < 1 || R < 1 || S < 1)
    fail("non-positive dimension");
  if (stride_h < 1 || stride_w < 1) fail("non-positive stride");
  if (pad_h < 0 || pad_w < 0) fail("negative padding");
  if (H + 2 * pad_h < R || W + 2 * pad_w < S)
    fail("filter larger than padded input");
  // Output dims use floor semantics (standard CNN convention); a trailing
  // input margin that the stride does not cover is simply never read.
}

ConvParams ConvParams::dual() const {
  ConvParams d;
  d.N = N;
  d.C = K;
  d.K = C;
  d.H = P();
  d.W = Q();
  d.R = R;
  d.S = S;
  d.pad_h = R - 1 - pad_h;
  d.pad_w = S - 1 - pad_w;
  if (d.pad_h < 0 || d.pad_w < 0)
    throw std::invalid_argument(
        "ConvParams: pad > R-1 unsupported by the duality transform in " +
        to_string());
  return d;
}

std::string ConvParams::to_string() const {
  std::ostringstream os;
  os << "conv(N=" << N << ",C=" << C << ",K=" << K << ",H=" << H
     << ",W=" << W << ",R=" << R << ",S=" << S << ",stride=" << stride_h
     << "x" << stride_w << ",pad=" << pad_h << "x" << pad_w << ")";
  return os.str();
}

ConvParams make_conv(int N, int C, int K, int H, int W, int R, int S,
                     int stride, int pad) {
  ConvParams p;
  p.N = N;
  p.C = C;
  p.K = K;
  p.H = H;
  p.W = W;
  p.R = R;
  p.S = S;
  p.stride_h = p.stride_w = stride;
  // pad < 0 requests "same"-style padding of (R-1)/2; rectangular filters get
  // per-axis defaults. An explicit pad applies to both axes. Even filter dims
  // have no symmetric "same" padding — (R-1)/2 would silently shrink the
  // output domain — so they must pass pad explicitly.
  if (pad < 0 && (R % 2 == 0 || S % 2 == 0))
    throw std::invalid_argument(
        "make_conv: default pad=-1 (\"same\") requires odd filter dims, got " +
        std::to_string(R) + "x" + std::to_string(S) +
        "; pass an explicit pad");
  p.pad_h = (pad < 0) ? (R - 1) / 2 : pad;
  p.pad_w = (pad < 0) ? (S - 1) / 2 : pad;
  p.validate();
  return p;
}

}  // namespace xconv::core
