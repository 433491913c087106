// Forward propagation driver (paper Algorithms 3-5).
//
// Work is flattened (n, kb, spatial-block) and chunked across threads
// (Section II-F priority: minibatch, then output feature blocks, then the
// spatial domain). Each thread either executes the loop nest directly
// ("branchy" mode — also the dryrun recorder) or replays its pre-recorded
// kernel stream (Algorithm 5).
#include <omp.h>

#include <algorithm>
#include <stdexcept>

#include "core/conv_layer.hpp"

namespace xconv::core {

namespace {
void check_geometry(const ConvLayer& l, const tensor::ActTensor& in,
                    const tensor::WtTensor& wt,
                    const tensor::ActTensor& out) {
  const ConvParams& p = l.params();
  if (in.n() != p.N || in.channels() != p.C || in.h() != p.H ||
      in.w() != p.W || in.pad_h() != l.in_halo_h() ||
      in.pad_w() != l.in_halo_w() || in.vlen() != l.vlen())
    throw std::invalid_argument("ConvLayer::forward: input geometry mismatch");
  if (out.n() != p.N || out.channels() != p.K || out.h() != p.P() ||
      out.w() != p.Q() || out.pad_h() != l.out_halo_h() ||
      out.pad_w() != l.out_halo_w() || out.vlen() != l.vlen())
    throw std::invalid_argument("ConvLayer::forward: output geometry mismatch");
  if (wt.outer() != l.kb() || wt.inner() != l.cb() || wt.r() != p.R ||
      wt.s() != p.S || wt.vlen() != l.vlen())
    throw std::invalid_argument("ConvLayer::forward: weight geometry mismatch");
}
}  // namespace

void ConvLayer::forward_branchy(const float* in, const float* wt, float* out,
                                const FusionArgs& fargs, bool record_streams) {
  const int n_pb = p_full_ + (p_rem_ > 0 ? 1 : 0);
  const int n_qb = q_full_ + (q_rem_ > 0 ? 1 : 0);
  const std::int64_t n_sb = static_cast<std::int64_t>(n_pb) * n_qb;
  const std::int64_t total = static_cast<std::int64_t>(params_.N) * kb_ * n_sb;
  const bool single_pass = plan_.cb_in_kernel || cb_ == 1;
  const int rbp = plan_.rbp, rbq = plan_.rbq;
  const int passes = single_pass ? 1 : cb_;
  const bool relu_in_kernel = (opt_.fuse == FusedOp::relu);
  const bool apply_fusion = needs_apply(opt_.fuse);

  parallel_exact("ConvLayer::forward", [&](int tid) {
    KernelStream* stream = record_streams ? &fwd_streams_[tid] : nullptr;

    auto emit_conv = [&](int variant, std::int64_t in_off, std::int64_t wt_off,
                         std::int64_t out_off) {
      if (stream != nullptr) {
        stream->record_conv(static_cast<std::uint16_t>(variant), in_off,
                            wt_off, out_off);
      } else {
        // Branchy mode cannot cheaply know the next call's sub-tensors; it
        // passes the current ones (a no-op prefetch) — exactly the problem
        // kernel streams solve (Section II-H).
        fwd_variants_[variant]->run(in + in_off, wt + wt_off, out + out_off,
                                    in + in_off, wt + wt_off, out + out_off);
      }
    };
    auto emit_apply = [&](const ApplyRecord& rec) {
      if (stream != nullptr)
        stream->record_apply(rec);
      else
        apply_fused_op(rec, out, fargs);
    };

    const Range rg = thread_chunk(total, tid, threads_);
    std::int64_t i = rg.begin;
    while (i < rg.end) {
      const std::int64_t job = i / n_sb;
      const int n = static_cast<int>(job / kb_);
      const int kbi = static_cast<int>(job % kb_);
      const std::int64_t sb_begin = i % n_sb;
      const std::int64_t sb_end =
          std::min<std::int64_t>(n_sb, sb_begin + (rg.end - i));

      for (int pass = 0; pass < passes; ++pass) {
        const bool first = (pass == 0);
        const bool last = (pass == passes - 1);
        const int cbi = single_pass ? 0 : pass;
        for (std::int64_t sb = sb_begin; sb < sb_end; ++sb) {
          const int pj_blk = static_cast<int>(sb / n_qb);
          const int qi_blk = static_cast<int>(sb % n_qb);
          const bool p_edge = (p_rem_ > 0 && pj_blk == p_full_);
          const bool q_edge = (q_rem_ > 0 && qi_blk == q_full_);
          const int oj0 = std::min(pj_blk, p_full_) * rbp;
          const int oi0 = std::min(qi_blk, q_full_) * rbq;

          const std::int64_t in_off =
              n * in_n_stride_ + cbi * in_cb_stride_ +
              static_cast<std::int64_t>(oj0 * params_.stride_h +
                                        in_shift_h_) *
                  in_row_stride_ +
              static_cast<std::int64_t>(oi0 * params_.stride_w +
                                        in_shift_w_) *
                  vlen_;
          const std::int64_t wt_off =
              kbi * wt_kb_stride_ + cbi * wt_cb_stride_;
          const std::int64_t out_off =
              n * out_n_stride_ + kbi * out_kb_stride_ +
              static_cast<std::int64_t>(oj0 + out_pad_h_) * out_row_stride_ +
              static_cast<std::int64_t>(oi0 + out_pad_w_) * vlen_;

          const bool relu_here = relu_in_kernel && last;
          emit_conv(variant_for(p_edge, q_edge, single_pass || first,
                                relu_here),
                    in_off, wt_off, out_off);

          if (last && apply_fusion) {
            ApplyRecord rec;
            rec.op = opt_.fuse;
            rec.out_off = out_off;
            rec.rows = p_edge ? p_rem_ : rbp;
            rec.cols = q_edge ? q_rem_ : rbq;
            rec.row_stride = out_row_stride_;
            rec.kb = kbi;
            rec.vlen = vlen_;
            emit_apply(rec);
          }
        }
      }
      i += (sb_end - sb_begin);
    }
  });
}

void ConvLayer::dryrun_forward() {
  fwd_streams_.assign(threads_, KernelStream{});
  forward_branchy(nullptr, nullptr, nullptr, FusionArgs{},
                  /*record_streams=*/true);
  for (auto& s : fwd_streams_) s.finish();
}

void ConvLayer::forward(const tensor::ActTensor& in,
                        const tensor::WtTensor& wt, tensor::ActTensor& out,
                        const FusionArgs& fargs) {
  check_geometry(*this, in, wt, out);
  if (opt_.use_streams) {
    parallel_exact("ConvLayer::forward", [&](int tid) {
      fwd_streams_[tid].replay(fwd_variants_, in.data(), wt.data(),
                               out.data(), fargs);
    });
  } else {
    forward_branchy(in.data(), wt.data(), out.data(), fargs,
                    /*record_streams=*/false);
  }
}

}  // namespace xconv::core
