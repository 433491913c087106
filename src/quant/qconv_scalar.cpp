// Scalar reference for the int16 kernels: integer arithmetic identical to the
// generated VNNI kernels (int32 pair-dot accumulate, periodic fp32 flush), so
// the two implementations agree bit-for-bit.
#include "quant/qconv_kernels.hpp"

#include <cmath>

namespace xconv::quant {

void qconv_block_scalar(const QKernelDesc& d, const std::int16_t* in,
                        const std::int16_t* wt, float* out, float scale) {
  const int v = d.vlen;
  const int ocs = d.out_col_stride > 0 ? d.out_col_stride : v;
  for (int q = 0; q < d.rbq; ++q) {
    float* o = out + static_cast<std::int64_t>(q) * ocs;
    for (int k = 0; k < v; ++k) {
      float facc = d.beta0 ? 0.0f : o[k];
      std::int32_t iacc = 0;
      int chain = 0;
      for (int cb = 0; cb < d.c_blocks; ++cb) {
        const std::int16_t* in_b = in + cb * d.in_cb_stride;
        const std::int16_t* wt_b = wt + cb * d.wt_cb_stride;
        for (int r = 0; r < d.r; ++r) {
          for (int s = 0; s < d.s; ++s) {
            const std::int16_t* irow =
                in_b + static_cast<std::int64_t>(r) * d.in_row_stride +
                static_cast<std::int64_t>(q * d.stride_w + s) * v;
            const std::int16_t* wrs =
                wt_b + (static_cast<std::int64_t>(r) * d.s + s) * v * v;
            for (int c2 = 0; c2 < d.c2_iters; ++c2) {
              const std::int32_t a0 = irow[c2 * 2 + 0];
              const std::int32_t a1 = irow[c2 * 2 + 1];
              const std::int32_t w0 =
                  wrs[(static_cast<std::int64_t>(c2) * v + k) * 2 + 0];
              const std::int32_t w1 =
                  wrs[(static_cast<std::int64_t>(c2) * v + k) * 2 + 1];
              iacc += a0 * w0 + a1 * w1;
              if (++chain == d.flush_interval) {
                // fmaf: single rounding, matching the generated kernel's
                // vfmadd231ps so the two backends agree bit-for-bit.
                facc = std::fmaf(static_cast<float>(iacc), scale, facc);
                iacc = 0;
                chain = 0;
              }
            }
          }
        }
      }
      facc = std::fmaf(static_cast<float>(iacc), scale, facc);
      o[k] = facc;
    }
  }
}

void qupd_block_scalar(const QUpdKernelDesc& d, const std::int16_t* in,
                       const std::int16_t* dov, float* dw, float scale) {
  const int v = d.vlen;
  for (int c = 0; c < v; ++c) {
    for (int k = 0; k < v; ++k) {
      float facc = d.beta0 ? 0.0f : dw[static_cast<std::int64_t>(c) * v + k];
      std::int32_t iacc = 0;
      int chain = 0;
      for (int row = 0; row < d.rows; ++row) {
        const std::int16_t* irow =
            in + static_cast<std::int64_t>(row) * d.in_row_stride;
        const std::int16_t* grow =
            dov + static_cast<std::int64_t>(row) * d.dov_row_stride;
        for (int q2 = 0; q2 < d.bq2; ++q2) {
          // Pair-interleaved input [q2][c][2] and dO [q2][k][2].
          const std::int32_t x0 =
              irow[(static_cast<std::int64_t>(q2) * v + c) * 2 + 0];
          const std::int32_t x1 =
              irow[(static_cast<std::int64_t>(q2) * v + c) * 2 + 1];
          const std::int32_t g0 =
              grow[(static_cast<std::int64_t>(q2) * v + k) * 2 + 0];
          const std::int32_t g1 =
              grow[(static_cast<std::int64_t>(q2) * v + k) * 2 + 1];
          iacc += x0 * g0 + x1 * g1;
          if (++chain == d.flush_interval) {
            facc = std::fmaf(static_cast<float>(iacc), scale, facc);
            iacc = 0;
            chain = 0;
          }
        }
      }
      facc = std::fmaf(static_cast<float>(iacc), scale, facc);
      dw[static_cast<std::int64_t>(c) * v + k] = facc;
    }
  }
}

void interleave_pairs(const std::int16_t* src, int pixels, int stride,
                      int vlen, std::int16_t* dst) {
  const std::int64_t step = static_cast<std::int64_t>(stride) * vlen;
  for (int j = 0; 2 * j < pixels; ++j) {
    const std::int16_t* p0 = src + 2 * j * step;
    std::int16_t* o = dst + static_cast<std::int64_t>(j) * vlen * 2;
    if (2 * j + 1 < pixels) {
      for (int c = 0; c < vlen; ++c) {
        o[2 * c + 0] = p0[c];
        o[2 * c + 1] = p0[step + c];
      }
    } else {
      for (int c = 0; c < vlen; ++c) {
        o[2 * c + 0] = p0[c];
        o[2 * c + 1] = 0;
      }
    }
  }
}

}  // namespace xconv::quant
