#include "core/conv_layer.hpp"

#include <omp.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace xconv::core {

ConvLayer::ConvLayer(const ConvParams& params, const ConvOptions& opt)
    : params_(params), opt_(opt) {
  params_.validate();
  threads_ = opt_.threads > 0 ? opt_.threads : omp_get_max_threads();
  if (threads_ < 1) threads_ = 1;

  // Resolve every planning decision up front (core/plan.hpp): the explicit
  // plan, else the PlanCache (disk/autotune/default). Execution context
  // stays ours: resolve_plan applies it to the plan, so opt_ and plan_ agree.
  PlanRequest req;
  req.isa = opt_.isa;
  req.backend = opt_.backend;
  req.use_streams = opt_.use_streams;
  req.prefetch = opt_.prefetch;
  req.threads = threads_;
  req.fwd_only = opt_.fwd_only;
  plan_ = resolve_plan(params_, req, opt_.plan);

  vlen_ = plan_.vlen;
  cb_ = tensor::ceil_div(params_.C, vlen_);
  kb_ = tensor::ceil_div(params_.K, vlen_);

  choose_blocking();
  build_fwd_variants();
  if (opt_.use_streams) dryrun_forward();
  if (!opt_.fwd_only) {
    setup_backward();
    setup_update();
    if (opt_.use_streams) {
      dryrun_backward();
      dryrun_update();
    }
  }
}


void ConvLayer::choose_blocking() {
  const ConvParams& p = params_;
  const int P = p.P(), Q = p.Q();

  // Register blocking (Section II-B) comes straight from the plan; the
  // derivation (and budget validation) happened in plan_default()/validate().
  q_full_ = Q / plan_.rbq;
  q_rem_ = Q % plan_.rbq;
  p_full_ = P / plan_.rbp;
  p_rem_ = P % plan_.rbp;

  // Physical halos: defaults are the minimum each side needs (input: the
  // zero padding; output: what backward-as-forward reads, Section II-I).
  // Callers may raise them so one buffer serves several layers.
  in_halo_h_ = opt_.in_halo_h >= 0 ? opt_.in_halo_h : p.pad_h;
  in_halo_w_ = opt_.in_halo_w >= 0 ? opt_.in_halo_w : p.pad_w;
  out_pad_h_ = opt_.out_halo_h >= 0 ? opt_.out_halo_h
                                    : std::max(0, p.R - 1 - p.pad_h);
  out_pad_w_ = opt_.out_halo_w >= 0 ? opt_.out_halo_w
                                    : std::max(0, p.S - 1 - p.pad_w);
  if (in_halo_h_ < p.pad_h || in_halo_w_ < p.pad_w)
    throw std::invalid_argument("ConvLayer: input halo smaller than padding");
  if (!opt_.fwd_only && (out_pad_h_ < std::max(0, p.R - 1 - p.pad_h) ||
                         out_pad_w_ < std::max(0, p.S - 1 - p.pad_w)))
    throw std::invalid_argument(
        "ConvLayer: output halo too small for backward duality");
  in_shift_h_ = in_halo_h_ - p.pad_h;
  in_shift_w_ = in_halo_w_ - p.pad_w;

  // Geometry (element strides) of the tensors make_input/make_output create.
  const int hp = p.H + 2 * in_halo_h_, wp = p.W + 2 * in_halo_w_;
  in_row_stride_ = wp * vlen_;
  in_cb_stride_ = static_cast<std::int64_t>(hp) * wp * vlen_;
  in_n_stride_ = in_cb_stride_ * cb_;
  const int php = P + 2 * out_pad_h_, qwp = Q + 2 * out_pad_w_;
  out_row_stride_ = qwp * vlen_;
  out_kb_stride_ = static_cast<std::int64_t>(php) * qwp * vlen_;
  out_n_stride_ = out_kb_stride_ * kb_;
  wt_cb_stride_ = static_cast<std::int64_t>(p.R) * p.S * vlen_ * vlen_;
  wt_kb_stride_ = wt_cb_stride_ * cb_;
}

tensor::ActTensor ConvLayer::make_input() const {
  return tensor::ActTensor(params_.N, params_.C, params_.H, params_.W,
                           in_halo_h_, in_halo_w_, vlen_);
}

tensor::ActTensor ConvLayer::make_output() const {
  return tensor::ActTensor(params_.N, params_.K, params_.P(), params_.Q(),
                           out_pad_h_, out_pad_w_, vlen_);
}

tensor::WtTensor ConvLayer::make_weights() const {
  return tensor::WtTensor(kb_, cb_, params_.R, params_.S, vlen_);
}

void ConvLayer::build_fwd_variants() {
  // Variant table indexed by (p_edge, q_edge, beta0, relu); -1 = not needed.
  fwd_variants_.clear();
  fwd_vmap_.fill(-1);
  auto& reg = kernels::KernelRegistry::instance();

  const bool want_relu_variant = (opt_.fuse == FusedOp::relu);
  // 1x1 Cb-loop-in-kernel transformation (Section II-C).
  const bool cb_in_kernel = plan_.cb_in_kernel;
  for (int pe = 0; pe < 2; ++pe) {
    const int rbp = pe ? p_rem_ : plan_.rbp;
    if (rbp == 0) continue;
    if (pe == 1 && p_rem_ == 0) continue;
    for (int qe = 0; qe < 2; ++qe) {
      const int rbq = qe ? q_rem_ : plan_.rbq;
      if (rbq == 0) continue;
      if (qe == 1 && q_rem_ == 0) continue;
      for (int b0 = 0; b0 < 2; ++b0) {
        // With the Cb loop in-kernel there is exactly one (beta0) pass.
        if (cb_in_kernel && b0 == 0) continue;
        if (!cb_in_kernel && cb_ == 1 && b0 == 0) continue;
        for (int rl = 0; rl < 2; ++rl) {
          if (rl == 1 && !want_relu_variant) continue;
          // ReLU only folds into the last Cb iteration = beta1 kernel when
          // multiple passes exist, or the single beta0 kernel otherwise.
          const bool last_pass_kernel = cb_in_kernel || cb_ == 1 || b0 == 0;
          if (rl == 1 && !last_pass_kernel) continue;

          jit::ConvKernelDesc d;
          d.isa = opt_.isa == platform::Isa::scalar ? platform::Isa::avx512
                                                    : opt_.isa;
          d.vlen = vlen_;
          d.rbp = rbp;
          d.rbq = rbq;
          d.r = params_.R;
          d.s = params_.S;
          d.stride_h = params_.stride_h;
          d.stride_w = params_.stride_w;
          d.in_row_stride = in_row_stride_;
          d.out_row_stride = out_row_stride_;
          d.c_iters = vlen_;
          if (cb_in_kernel) {
            d.c_blocks = cb_;
            d.in_cb_stride = static_cast<int>(in_cb_stride_);
            d.wt_cb_stride = static_cast<int>(wt_cb_stride_);
          }
          d.beta0 = (b0 == 1);
          d.fuse_relu = (rl == 1);
          d.prefetch = opt_.prefetch;

          fwd_variants_.push_back(reg.conv(d, opt_.backend));
          fwd_vmap_[vmap_index(pe, qe, b0, rl)] =
              static_cast<int>(fwd_variants_.size() - 1);
        }
      }
    }
  }
}

int ConvLayer::variant_for(bool p_edge, bool q_edge, bool beta0,
                           bool relu) const {
  const int idx = fwd_vmap_[vmap_index(p_edge, q_edge, beta0, relu)];
  if (idx < 0)
    throw std::logic_error("ConvLayer: kernel variant not built for (" +
                           std::to_string(p_edge) + "," +
                           std::to_string(q_edge) + "," +
                           std::to_string(beta0) + "," + std::to_string(relu) +
                           ")");
  return idx;
}

void ConvLayer::parallel_exact(const char* what,
                               const std::function<void(int)>& body) const {
  int delivered = threads_;
#pragma omp parallel num_threads(threads_)
  {
    const int nthr = omp_get_num_threads();
#pragma omp master
    delivered = nthr;
    // Uniform across the team: either every member works or none does, so
    // barriers inside `body` (update's privatization) stay lined up.
    if (nthr == threads_) body(omp_get_thread_num());
  }
  if (delivered != threads_)
    throw std::runtime_error(
        std::string(what) + ": OpenMP delivered " +
        std::to_string(delivered) + " threads but the layer was set up for " +
        std::to_string(threads_) +
        " (nested parallel region, OMP_DYNAMIC or OMP_THREAD_LIMIT?)");
}

std::size_t ConvLayer::fwd_stream_convs() const {
  std::size_t n = 0;
  for (const auto& s : fwd_streams_) n += s.n_convs();
  return n;
}

std::size_t ConvLayer::bwd_stream_convs() const {
  if (bwd_layer_ != nullptr) return bwd_layer_->fwd_stream_convs();
  std::size_t n = 0;
  for (const auto& s : bwd1x1_streams_) n += s.n_convs();
  return n;
}

std::size_t ConvLayer::upd_stream_calls() const {
  std::size_t n = 0;
  for (const auto& s : upd_streams_) n += s.n_calls();
  return n;
}

std::string ConvLayer::describe() const {
  std::ostringstream os;
  os << params_.to_string() << " isa=" << platform::isa_name(opt_.isa)
     << " vlen=" << vlen_ << " rb=" << plan_.rbp << "x" << plan_.rbq
     << (plan_.cb_in_kernel ? " cb-in-kernel" : "")
     << " variants=" << fwd_variants_.size()
     << " streams=" << (opt_.use_streams ? "on" : "off");
  if (opt_.use_streams) {
    os << " stream_convs=" << fwd_stream_convs();
    if (!opt_.fwd_only)
      os << " bwd_stream_convs=" << bwd_stream_convs()
         << " upd_stream_calls=" << upd_stream_calls();
  }
  os << " bwd=" << bwd_algo_name(plan_.bwd_algo)
     << " upd=" << upd_strategy_name(plan_.upd_strategy)
     << " upd_b=" << plan_.upd_bp << "x" << plan_.upd_bq
     << " threads=" << threads_
     << " plan=" << (plan_.tuned ? "tuned" : "default");
  return os.str();
}

}  // namespace xconv::core
