#include "quant/qconv_layer.hpp"

#include <omp.h>

#include <algorithm>
#include <stdexcept>

#include "core/plan.hpp"

namespace xconv::quant {

QConvLayer::QConvLayer(const core::ConvParams& p, int threads,
                       int flush_interval, platform::Isa isa,
                       kernels::BackendPref backend)
    : p_(p), flush_(flush_interval), isa_(isa), backend_(backend) {
  p_.validate();
  if (p_.C % 2 != 0 && p_.C > 16)
    throw std::invalid_argument("QConvLayer: odd channel counts unsupported");
  cb_ = tensor::ceil_div(p_.C, vlen_);
  kb_ = tensor::ceil_div(p_.K, vlen_);
  threads_ = threads > 0 ? threads : omp_get_max_threads();
}

void QConvLayer::forward_generic(const QActTensor& qin, const QWtTensor& qwt,
                                 tensor::ActTensor& out,
                                 const core::ConvParams& p,
                                 bool scatter_strided) {
  const int v = vlen_;
  const int P = p.P(), Q = p.Q();
  const int in_cb = tensor::ceil_div(p.C, v);
  const int out_kb = tensor::ceil_div(p.K, v);
  const int rbq = core::pick_block_extent(Q, 13, 2);  // 13 = JIT budget
  const int q_full = Q / rbq, q_rem = Q % rbq;
  const int n_qb = q_full + (q_rem > 0 ? 1 : 0);
  const float scale = qin.scale * qwt.scale;

  QKernelDesc d;
  d.isa = isa_;
  d.vlen = v;
  d.r = p.R;
  d.s = p.S;
  d.stride_w = p.stride_w;
  d.stride_h = p.stride_h;
  d.in_row_stride = static_cast<int>(qin.stride_h());
  d.c2_iters = v / 2;
  d.c_blocks = in_cb;
  d.in_cb_stride = qin.stride_cb();
  d.wt_cb_stride = qwt.stride_cb();
  d.flush_interval = flush_;
  d.beta0 = true;
  // When scattering (strided 1x1 backward), output pixels/rows stride by the
  // original layer's stride; otherwise dense rows of `out`.
  const int out_col = scatter_strided ? p_.stride_w * v : v;
  d.out_col_stride = out_col;

  // Resolve the kernel variants outside the parallel region.
  auto& reg = kernels::KernelRegistry::instance();
  d.rbq = rbq;
  const kernels::QConvMicrokernel* k_main = reg.qconv(d, backend_);
  const kernels::QConvMicrokernel* k_edge = nullptr;
  if (q_rem > 0) {
    d.rbq = q_rem;
    k_edge = reg.qconv(d, backend_);
  }
  ran_ = k_main->backend();

  const std::int64_t total =
      static_cast<std::int64_t>(p.N) * out_kb * P * n_qb;
#pragma omp parallel for num_threads(threads_) schedule(static)
  for (std::int64_t it = 0; it < total; ++it) {
    std::int64_t rest = it;
    const int qb = static_cast<int>(rest % n_qb);
    rest /= n_qb;
    const int oj = static_cast<int>(rest % P);
    rest /= P;
    const int kbi = static_cast<int>(rest % out_kb);
    const int n = static_cast<int>(rest / out_kb);

    const bool q_edge = (q_rem > 0 && qb == q_full);
    const int oi0 = std::min(qb, q_full) * rbq;

    const std::int16_t* inp =
        qin.at_padded(n, 0, oj * p.stride_h, oi0 * p.stride_w);
    const std::int16_t* wtp = qwt.at(kbi, 0, 0, 0);
    float* o = scatter_strided
                   ? out.at_padded(n, kbi, oj * p_.stride_h,
                                   oi0 * p_.stride_w)
                   : out.at(n, kbi, oj, oi0);
    (q_edge ? k_edge : k_main)->run(inp, wtp, o, scale);
  }
}

void QConvLayer::forward(const QActTensor& qin, const QWtTensor& qwt,
                         tensor::ActTensor& out) {
  if (qin.v != vlen_ || qwt.v != vlen_ || qin.cb != cb_ || qwt.kb != kb_ ||
      qwt.cb != cb_)
    throw std::invalid_argument("QConvLayer::forward: geometry mismatch");
  forward_generic(qin, qwt, out, p_, /*scatter_strided=*/false);
}

void QConvLayer::backward(const QActTensor& qgrad_out,
                          const QWtTensor& qwt_bwd,
                          tensor::ActTensor& grad_in) {
  if (qwt_bwd.kb != cb_ || qwt_bwd.cb != kb_)
    throw std::invalid_argument(
        "QConvLayer::backward: expected backward-dual weights "
        "(quantize_wt_bwd)");
  if (p_.stride_h == 1 && p_.stride_w == 1) {
    // Duality scenario 1: forward convolution of dO with the dual weights.
    forward_generic(qgrad_out, qwt_bwd, grad_in, p_.dual(),
                    /*scatter_strided=*/false);
    return;
  }
  if (p_.R == 1 && p_.S == 1 && p_.pad_h == 0 && p_.pad_w == 0) {
    // Duality scenario 2: dense 1x1 conv over dO scattered into dI.
    grad_in.zero();
    forward_generic(qgrad_out, qwt_bwd, grad_in, p_.dual(),
                    /*scatter_strided=*/true);
    return;
  }
  throw std::invalid_argument(
      "QConvLayer::backward: strided non-1x1 layers unsupported in int16");
}

void QConvLayer::update(const QActTensor& qin, const QActTensor& qgrad_out,
                        tensor::WtTensor& grad_wt) {
  const int v = vlen_;
  const int P = p_.P(), Q = p_.Q();
  const int sw = p_.stride_w;
  const float scale = qin.scale * qgrad_out.scale;
  // Pixel pairs per row; an odd final pixel pairs with a zero dO pixel.
  const int q2 = (Q + 1) / 2;

  // "Transpose upfront": pair-interleave dO rows into [q2][k][2] and input
  // rows into [pair][c][2] — the memory-bound transformation the paper
  // charges against the int16 update. Tap s pairs input columns
  // (s + 2*sw*j, s + 2*sw*j + sw), so the input gets one copy per column
  // phase s mod 2*sw; tap s starts at pair s / (2*sw) of its phase's copy.
  const int period = 2 * sw;
  const int phases = std::min(p_.S, period);
  const int in_pairs = q2 + (p_.S - 1) / period;
  const std::int64_t pair_elems = 2 * v;
  const std::int64_t in_row =
      static_cast<std::int64_t>(phases) * in_pairs * pair_elems;
  const std::int64_t dov_row = static_cast<std::int64_t>(q2) * pair_elems;
  // Grow-only scratch: steady-state calls reuse it without allocating.
  const std::size_t inv_elems =
      static_cast<std::size_t>(p_.N) * cb_ * qin.hp * in_row;
  const std::size_t dov_elems =
      static_cast<std::size_t>(p_.N) * kb_ * P * dov_row;
  if (inv_.size() < inv_elems) inv_.resize(inv_elems);
  if (dov_.size() < dov_elems) dov_.resize(dov_elems);
#pragma omp parallel for num_threads(threads_) schedule(static) collapse(2)
  for (int n = 0; n < p_.N; ++n) {
    for (int cbi = 0; cbi < cb_; ++cbi) {
      for (int y = 0; y < qin.hp; ++y) {
        std::int16_t* dst =
            inv_.data() +
            ((static_cast<std::int64_t>(n) * cb_ + cbi) * qin.hp + y) * in_row;
        // Phase ph holds the Q pixels of each of its taps, the last tap
        // starting 2 * ((S - 1 - ph) / period) pixels in.
        for (int ph = 0; ph < phases; ++ph)
          interleave_pairs(qin.at_padded(n, cbi, y, ph),
                           Q + 2 * ((p_.S - 1 - ph) / period), sw, v,
                           dst + ph * in_pairs * pair_elems);
      }
    }
  }
#pragma omp parallel for num_threads(threads_) schedule(static) collapse(2)
  for (int n = 0; n < p_.N; ++n) {
    for (int kbi = 0; kbi < kb_; ++kbi) {
      for (int oj = 0; oj < P; ++oj)
        interleave_pairs(
            qgrad_out.at(n, kbi, oj, 0), Q, 1, v,
            dov_.data() +
                ((static_cast<std::int64_t>(n) * kb_ + kbi) * P + oj) *
                    dov_row);
    }
  }

  // One call covers `rows` output rows (the largest divisor of P keeping a
  // call at most 256 pair-steps), so the per-call dW flush is amortized.
  int rows = 1;
  for (int b = 1; b <= P; ++b)
    if (P % b == 0 && b * q2 <= 256) rows = b;
  QUpdKernelDesc ud;
  ud.isa = isa_;
  ud.vlen = v;
  ud.bq2 = q2;
  ud.rows = rows;
  ud.flush_interval = flush_;
  ud.in_row_stride = static_cast<int>(p_.stride_h * in_row);
  ud.dov_row_stride = static_cast<int>(dov_row);
  // Resolve both beta variants outside the parallel region.
  auto& reg = kernels::KernelRegistry::instance();
  const kernels::QUpdMicrokernel* k_first = reg.qupd(ud, backend_);
  ud.beta0 = false;
  const kernels::QUpdMicrokernel* k_acc = reg.qupd(ud, backend_);

  const std::int64_t tasks =
      static_cast<std::int64_t>(kb_) * cb_ * p_.R * p_.S;
#pragma omp parallel for num_threads(threads_) schedule(static)
  for (std::int64_t t = 0; t < tasks; ++t) {
    std::int64_t rest = t;
    const int s = static_cast<int>(rest % p_.S);
    rest /= p_.S;
    const int r = static_cast<int>(rest % p_.R);
    rest /= p_.R;
    const int cbi = static_cast<int>(rest % cb_);
    const int kbi = static_cast<int>(rest / cb_);
    const std::int64_t in_off =
        (static_cast<std::int64_t>(s % period) * in_pairs + s / period) *
        pair_elems;

    float* dw = grad_wt.at(kbi, cbi, r, s);
    for (int n = 0; n < p_.N; ++n) {
      for (int oj0 = 0; oj0 < P; oj0 += rows) {
        const int y = oj0 * p_.stride_h + r;
        const std::int16_t* irow =
            inv_.data() +
            ((static_cast<std::int64_t>(n) * cb_ + cbi) * qin.hp + y) *
                in_row +
            in_off;
        const std::int16_t* grow =
            dov_.data() +
            ((static_cast<std::int64_t>(n) * kb_ + kbi) * P + oj0) * dov_row;
        (n == 0 && oj0 == 0 ? k_first : k_acc)->run(irow, grow, dw, scale);
      }
    }
  }
}

}  // namespace xconv::quant
