// Weight-gradient update (paper Section II-J, Algorithm 9).
//
// The microkernel accumulates one VLEN x VLEN dW block over a BP x BQ pixel
// patch; the driver loops (n, kb, cb, r, s, pixel blocks) and chooses one of
// three parallelization strategies at setup:
//   * task      — parallelize over the R*S*Kb*Cb independent dW blocks; one
//                 shared dW tensor, every thread streams all N activations.
//   * minibatch — parallelize over N with per-thread dW copies, followed by
//                 a parallel sum-reduction of the copies.
//   * hybrid    — thread groups: minibatch across groups (one dW copy per
//                 group), task-parallel within a group.
// The dryrun-time decision models the bandwidth trade-off the paper derives
// (activation re-reads vs 2T extra dW volumes); see pick_upd_strategy().
//
// Like forward, the driver either executes directly ("branchy" mode — also
// the dryrun recorder) or replays pre-recorded per-thread kernel streams
// (Section II-H): UPD streaks with exact next-call prefetch offsets, plus
// ZERO / BARRIER / REDUCE records covering the dW privatization of the
// minibatch and hybrid strategies. Replay accumulates in the exact order of
// the branchy driver, so both modes produce bit-identical dW.
#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "core/conv_layer.hpp"

namespace xconv::core {

namespace {
// Mirror of forward's check_geometry (conv_forward.cpp): a wrong-shape
// tensor must fail loudly instead of silently corrupting memory.
void check_upd_geometry(const ConvLayer& l, const tensor::ActTensor& in,
                        const tensor::ActTensor& grad_out,
                        const tensor::WtTensor& grad_wt) {
  const ConvParams& p = l.params();
  if (in.n() != p.N || in.channels() != p.C || in.h() != p.H ||
      in.w() != p.W || in.pad_h() != l.in_halo_h() ||
      in.pad_w() != l.in_halo_w() || in.vlen() != l.vlen())
    throw std::invalid_argument("ConvLayer::update: input geometry mismatch");
  if (grad_out.n() != p.N || grad_out.channels() != p.K ||
      grad_out.h() != p.P() || grad_out.w() != p.Q() ||
      grad_out.pad_h() != l.out_halo_h() ||
      grad_out.pad_w() != l.out_halo_w() || grad_out.vlen() != l.vlen())
    throw std::invalid_argument(
        "ConvLayer::update: grad_out geometry mismatch");
  if (grad_wt.outer() != l.kb() || grad_wt.inner() != l.cb() ||
      grad_wt.r() != p.R || grad_wt.s() != p.S || grad_wt.vlen() != l.vlen())
    throw std::invalid_argument(
        "ConvLayer::update: grad_wt geometry mismatch");
}
}  // namespace

void ConvLayer::setup_update() {
  const ConvParams& p = params_;
  // Pixel blocking (Section II-J) comes from the resolved plan: BP = P,
  // BQ = Q maximizes dW register reuse but may spill the cache for large
  // spatial dims, so plan_default caps the patch at kUpdBpCap x kUpdBqCap.
  upd_qb_full_ = p.Q() / plan_.upd_bq;
  upd_qb_rem_ = p.Q() % plan_.upd_bq;
  upd_pb_full_ = p.P() / plan_.upd_bp;
  upd_pb_rem_ = p.P() % plan_.upd_bp;

  auto& reg = kernels::KernelRegistry::instance();
  upd_variants_.clear();
  upd_vmap_.fill(-1);
  // Channel-remainder variants (ce = 1) accumulate only the C % vlen real
  // channel rows of the last Cb block — the padded rows are zero in the
  // blocked input, so skipping them is bitwise-identical and saves up to
  // vlen/(C % vlen)x FMA work (e.g. 16/3 on a C=3 first layer).
  upd_c_rem_ = p.C % vlen_;
  for (int ce = 0; ce < (upd_c_rem_ > 0 ? 2 : 1); ++ce) {
    for (int pe = 0; pe < 2; ++pe) {
      const int bp = pe ? upd_pb_rem_ : plan_.upd_bp;
      if (bp == 0) continue;
      for (int qe = 0; qe < 2; ++qe) {
        const int bq = qe ? upd_qb_rem_ : plan_.upd_bq;
        if (bq == 0) continue;
        for (int b0 = 0; b0 < 2; ++b0) {
          jit::UpdKernelDesc d;
          d.isa = opt_.isa == platform::Isa::scalar ? platform::Isa::avx512
                                                    : opt_.isa;
          d.vlen = vlen_;
          d.bp = bp;
          d.bq = bq;
          d.stride_h = p.stride_h;
          d.stride_w = p.stride_w;
          d.in_row_stride = in_row_stride_;
          d.out_row_stride = out_row_stride_;
          d.beta0 = (b0 == 1);
          d.prefetch = opt_.prefetch;
          d.cmin = ce ? upd_c_rem_ : 0;
          upd_variants_.push_back(reg.upd(d, opt_.backend));
          upd_vmap_[upd_vmap_index(ce, pe, qe, b0)] =
              static_cast<int>(upd_variants_.size() - 1);
        }
      }
    }
  }

  // The strategy decision (the paper's bandwidth model) happened at
  // planning time — see plan_default() / pick_upd_strategy().
  // Privatization geometry is fully known at setup: size the per-copy dW
  // scratch arena here so branchy runs, dryrun recording and stream replay
  // all share one allocation.
  upd_dw_size_ = static_cast<std::size_t>(wt_kb_stride_) * kb_;
  upd_groups_ = 0;
  if (plan_.upd_strategy == UpdStrategy::hybrid) {
    const std::int64_t tasks =
        static_cast<std::int64_t>(kb_) * cb_ * p.R * p.S;
    const int groups = std::min(
        {std::max(2, threads_ / 2), p.N, static_cast<int>(tasks)});
    // Degenerate case: hybrid needs >= 2 threads and >= 2 viable groups
    // (each group must own a non-empty minibatch slice). upd_groups_ == 0
    // keeps the requested strategy name but runs task-style.
    if (threads_ >= 2 && groups >= 2) upd_groups_ = groups;
  }
  if (plan_.upd_strategy == UpdStrategy::minibatch)
    upd_scratch_.resize(upd_dw_size_ * threads_);
  else if (upd_groups_ > 0)
    upd_scratch_.resize(upd_dw_size_ * upd_groups_);

  // Reduce-epilogue kernel for the privatized-copy sum. Resolved only when
  // the strategy actually privatizes; the plan gates it (upd_reduce_jit) and
  // picks the chunk unroll. Spans past disp32 fall back to the scalar loop.
  upd_reduce_ = nullptr;
  const int red_copies =
      plan_.upd_strategy == UpdStrategy::minibatch ? threads_ : upd_groups_;
  if (red_copies >= 2 && plan_.upd_reduce_jit) {
    jit::ReduceKernelDesc rd;
    rd.isa = opt_.isa == platform::Isa::scalar ? platform::Isa::avx512
                                               : opt_.isa;
    rd.vlen = vlen_;
    rd.copies = red_copies;
    rd.copy_stride = static_cast<std::int64_t>(upd_dw_size_);
    rd.unroll = plan_.upd_reduce_unroll;
    const std::int64_t span =
        (static_cast<std::int64_t>(red_copies - 1) * rd.copy_stride +
         static_cast<std::int64_t>(rd.unroll) * vlen_) *
        4;
    if (span <= INT32_MAX) upd_reduce_ = reg.reduce(rd, opt_.backend);
  }
}

float* ConvLayer::upd_dw_base(int tid, float* dw) {
  if (plan_.upd_strategy == UpdStrategy::minibatch)
    return upd_scratch_.data() + upd_dw_size_ * tid;
  if (plan_.upd_strategy == UpdStrategy::hybrid && upd_groups_ > 0)
    return upd_scratch_.data() + upd_dw_size_ * (tid % upd_groups_);
  return dw;  // task (and degenerate hybrid): the shared dW tensor
}

void ConvLayer::update_branchy(const float* in_b, const float* do_b,
                               float* dw, bool record_streams) {
  const ConvParams& p = params_;
  const int n_pb = upd_pb_full_ + (upd_pb_rem_ > 0 ? 1 : 0);
  const int n_qb = upd_qb_full_ + (upd_qb_rem_ > 0 ? 1 : 0);
  const std::int64_t tasks = static_cast<std::int64_t>(kb_) * cb_ * p.R * p.S;
  const std::int64_t dw_size = static_cast<std::int64_t>(upd_dw_size_);

  auto task_coords = [&](std::int64_t t, int& kbi, int& cbi, int& r, int& s) {
    s = static_cast<int>(t % p.S);
    t /= p.S;
    r = static_cast<int>(t % p.R);
    t /= p.R;
    cbi = static_cast<int>(t % cb_);
    kbi = static_cast<int>(t / cb_);
  };
  auto dw_offset = [&](int kbi, int cbi, int r, int s) {
    return kbi * wt_kb_stride_ + cbi * wt_cb_stride_ +
           static_cast<std::int64_t>(r * p.S + s) * vlen_ * vlen_;
  };

  parallel_exact("ConvLayer::update", [&](int tid) {
    KernelStream* stream = record_streams ? &upd_streams_[tid] : nullptr;
    float* dw_base = upd_dw_base(tid, dw);

    auto emit_upd = [&](int v, std::int64_t in_off, std::int64_t do_off,
                        std::int64_t dw_off) {
      if (stream != nullptr) {
        stream->record_upd(static_cast<std::uint16_t>(v), in_off, do_off,
                           dw_off);
      } else {
        // Branchy mode passes the current sub-tensors as (no-op) prefetch
        // args — exactly the problem kernel streams solve (Section II-H).
        upd_variants_[v]->run(in_b + in_off, do_b + do_off, dw_base + dw_off,
                              in_b + in_off, do_b + do_off, dw_base + dw_off);
      }
    };

    // One pixel block (n, pjb, qib) of minibatch contribution into the dW
    // block (kbi, cbi, r, s) at dw_off. `first` selects the beta0 kernel so
    // each covered block is fully overwritten; the c-edge variants cover the
    // channel-remainder rows of the last Cb block.
    auto emit_block = [&](std::int64_t dw_off, int kbi, int cbi, int r, int s,
                          int n, int pjb, int qib, bool first) {
      const bool p_edge = (upd_pb_rem_ > 0 && pjb == upd_pb_full_);
      const int oj0 = std::min(pjb, upd_pb_full_) * plan_.upd_bp;
      const bool q_edge = (upd_qb_rem_ > 0 && qib == upd_qb_full_);
      const int oi0 = std::min(qib, upd_qb_full_) * plan_.upd_bq;
      const std::int64_t in_off =
          n * in_n_stride_ + cbi * in_cb_stride_ +
          static_cast<std::int64_t>(oj0 * p.stride_h + r + in_shift_h_) *
              in_row_stride_ +
          static_cast<std::int64_t>(oi0 * p.stride_w + s + in_shift_w_) *
              vlen_;
      const std::int64_t do_off =
          n * out_n_stride_ + kbi * out_kb_stride_ +
          static_cast<std::int64_t>(oj0 + out_pad_h_) * out_row_stride_ +
          static_cast<std::int64_t>(oi0 + out_pad_w_) * vlen_;
      const bool c_edge = (upd_c_rem_ > 0 && cbi == cb_ - 1);
      const int v = upd_vmap_[upd_vmap_index(c_edge ? 1 : 0, p_edge ? 1 : 0,
                                             q_edge ? 1 : 0, first ? 1 : 0)];
      emit_upd(v, in_off, do_off, dw_off);
    };

    // Accumulate every pixel block of minibatch range [n0, n1) into one dW
    // block, pixel blocks in (n, pjb, qib) lexicographic order.
    auto accumulate = [&](std::int64_t dw_off, int kbi, int cbi, int r, int s,
                          int n0, int n1) {
      bool first = true;
      for (int n = n0; n < n1; ++n)
        for (int pjb = 0; pjb < n_pb; ++pjb)
          for (int qib = 0; qib < n_qb; ++qib) {
            emit_block(dw_off, kbi, cbi, r, s, n, pjb, qib, first);
            first = false;
          }
    };

    // Run task range [t0, t1) over minibatch range [n0, n1) in the plan's
    // loop order. Both orders walk each dW block's pixel contributions in
    // identical (n, pjb, qib) lexicographic sequence, so the accumulated
    // bits match; only the *interleaving across tasks* changes. pixel_outer
    // keeps the (n, pjb, qib) activation working set cache-resident across
    // the whole task sweep instead of re-streaming it per task.
    auto run_tasks = [&](std::int64_t t0, std::int64_t t1, int n0, int n1) {
      if (plan_.upd_loop_order == UpdLoopOrder::task_outer) {
        for (std::int64_t t = t0; t < t1; ++t) {
          int kbi, cbi, r, s;
          task_coords(t, kbi, cbi, r, s);
          accumulate(dw_offset(kbi, cbi, r, s), kbi, cbi, r, s, n0, n1);
        }
        return;
      }
      for (int n = n0; n < n1; ++n)
        for (int pjb = 0; pjb < n_pb; ++pjb)
          for (int qib = 0; qib < n_qb; ++qib) {
            const bool first = (n == n0 && pjb == 0 && qib == 0);
            for (std::int64_t t = t0; t < t1; ++t) {
              int kbi, cbi, r, s;
              task_coords(t, kbi, cbi, r, s);
              emit_block(dw_offset(kbi, cbi, r, s), kbi, cbi, r, s, n, pjb,
                         qib, first);
            }
          }
    };

    // Privatized copies: barrier, then each thread sums a contiguous slice
    // of the dW element space over all copies (copy 0 first — the order the
    // REDUCE replay reproduces bit-identically).
    auto reduce_phase = [&](int copies) {
      if (stream != nullptr) stream->record_barrier();
#pragma omp barrier
      const Range er = thread_chunk(dw_size, tid, threads_);
      if (er.empty()) return;
      if (stream != nullptr) {
        stream->record_reduce({er.begin, er.size(), copies, dw_size});
        return;
      }
      const float* src = upd_scratch_.data();
      // The generated kernel keeps the exact per-element copy order of the
      // scalar loop below, so dispatching through it changes no bits.
      if (upd_reduce_ != nullptr && upd_reduce_->desc().copies == copies) {
        upd_reduce_->run(src + er.begin, dw + er.begin, er.size());
        return;
      }
      for (std::int64_t e = er.begin; e < er.end; ++e) {
        float acc = src[e];
        for (int c = 1; c < copies; ++c) acc += src[dw_size * c + e];
        dw[e] = acc;
      }
    };

    const bool task_style =
        plan_.upd_strategy == UpdStrategy::task ||
        (plan_.upd_strategy == UpdStrategy::hybrid && upd_groups_ == 0);
    if (task_style) {
      const Range tr = thread_chunk(tasks, tid, threads_);
      run_tasks(tr.begin, tr.end, 0, p.N);
    } else if (plan_.upd_strategy == UpdStrategy::minibatch) {
      const Range nr = thread_chunk(p.N, tid, threads_);
      if (nr.empty()) {
        // More threads than minibatch: this thread's copy never receives a
        // beta0 write; blank it so the reduction reads zeros.
        if (stream != nullptr)
          stream->record_zero(0, dw_size);
        else
          std::memset(dw_base, 0,
                      static_cast<std::size_t>(dw_size) * sizeof(float));
      } else {
        run_tasks(0, tasks, static_cast<int>(nr.begin),
                  static_cast<int>(nr.end));
      }
      reduce_phase(threads_);
    } else {
      // Hybrid: G dW copies; group g covers a minibatch slice, its members
      // split the task space (Section II-J's "hybrid versions of these two
      // extremes"). Threads are distributed over groups round-robin.
      const int g = tid % upd_groups_;
      const int member = tid / upd_groups_;
      const int members =
          threads_ / upd_groups_ + (g < threads_ % upd_groups_ ? 1 : 0);
      const Range nr = thread_chunk(p.N, g, upd_groups_);
      const Range tr = thread_chunk(tasks, member, members);
      run_tasks(tr.begin, tr.end, static_cast<int>(nr.begin),
                static_cast<int>(nr.end));
      reduce_phase(upd_groups_);
    }
  });
}

void ConvLayer::dryrun_update() {
  upd_streams_.assign(threads_, KernelStream{});
  update_branchy(nullptr, nullptr, nullptr, /*record_streams=*/true);
  for (auto& s : upd_streams_) s.finish();
}

void ConvLayer::update(const tensor::ActTensor& in,
                       const tensor::ActTensor& grad_out,
                       tensor::WtTensor& grad_wt) {
  check_upd_geometry(*this, in, grad_out, grad_wt);
  const float* in_b = in.data();
  const float* do_b = grad_out.data();
  float* dw = grad_wt.data();

  if (opt_.use_streams && !upd_streams_.empty()) {
    parallel_exact("ConvLayer::update", [&](int tid) {
      upd_streams_[tid].replay_upd(upd_variants_, in_b, do_b,
                                   upd_dw_base(tid, dw),
                                   upd_scratch_.data(), dw, upd_reduce_);
    });
    return;
  }
  update_branchy(in_b, do_b, dw, /*record_streams=*/false);
}

}  // namespace xconv::core
