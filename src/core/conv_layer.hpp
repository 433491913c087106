// ConvLayer: the library's primary public API — one CNN convolution layer
// with the paper's high-performance forward, backward and weight-gradient
// passes (Sections II-A .. II-J).
//
// Construction performs the "setup" work the paper does once per layer:
//   * blocking selection (VLEN, RBP/RBQ register blocks, edge variants,
//     weight-update BP/BQ pixel blocks),
//   * JIT compilation of every needed microkernel variant (via the registry),
//   * the dryrun phase: per-thread kernel streams with prefetch-ready offset
//     sequences and fused-operator APPLY records (Section II-H),
//   * the weight-update parallelization-strategy decision (Section II-J).
//
// All planning *decisions* (blocking extents, backward algorithm, update
// strategy) come from a ConvPlan resolved at construction (core/plan.hpp):
// an explicit ConvOptions::plan, else a PlanCache/autotune hit or the
// default heuristics. plan() is the only place the layer keeps them. Setup
// then only *executes* the plan — JIT, dryrun, scratch sizing — so a
// persisted plan makes steady-state construction decision-free.
//
// The per-iteration calls (`forward`, `backward`, `update`) then only replay
// streams / run tight loops — no compilation, no tuning, no branchy logic.
//
// Tensors use the blocked layouts of tensor/layout.hpp; use the make_*
// factories to get correctly-shaped/padded instances and
// tensor/transform.hpp to move data in and out of framework layouts.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/conv_params.hpp"
#include "core/fusion.hpp"
#include "core/partition.hpp"
#include "core/plan.hpp"
#include "core/streams.hpp"
#include "kernels/kernel_registry.hpp"
#include "platform/cpu.hpp"
#include "tensor/layout.hpp"

namespace xconv::core {

struct ConvOptions {
  platform::Isa isa = platform::effective_isa();
  kernels::BackendPref backend = kernels::backend_pref_from_env();
  /// Replay kernel streams vs branchy loops, for all three passes
  /// (backward's GEMM fallback has no stream form and stays branchy).
  /// Default honors the XCONV_STREAMS environment variable (unset = on).
  bool use_streams = use_streams_from_env();
  bool prefetch = true;      ///< two-level software prefetch in kernels
  FusedOp fuse = FusedOp::none;
  int threads = 0;           ///< 0 = omp_get_max_threads()

  /// Physical halo of the input/output tensors, in pixels (-1 = default).
  /// The input halo must be >= pad (the extra rim is skipped); the output
  /// halo must be >= max(0, R-1-pad) unless fwd_only (backward reads dO with
  /// that halo). Graph executors raise halos so one buffer satisfies both
  /// its producer's backward and its consumer's forward.
  int in_halo_h = -1, in_halo_w = -1;
  int out_halo_h = -1, out_halo_w = -1;

  /// Internal: set for the backward dual layer, which only ever runs its
  /// forward pass — skips its own backward/update setup (and prevents the
  /// dual-of-dual recursion).
  bool fwd_only = false;

  /// Explicit plan, the one way to pin decisions (blocking, backward
  /// algorithm, update strategy): when set, the layer executes exactly its
  /// decisions (validated against the shape and the isa/vlen/threads context
  /// above) and never consults the PlanCache. When unset, the PlanCache
  /// supplies a cached, tuned or default plan. Either way, backend,
  /// use_streams and prefetch above override the plan's own. To change one
  /// decision, take ConvLayer(p, o).plan() or plan_default(), edit it, set it
  /// here.
  std::optional<ConvPlan> plan;
};

class ConvLayer {
 public:
  explicit ConvLayer(const ConvParams& params, const ConvOptions& opt = {});
  ~ConvLayer();
  ConvLayer(const ConvLayer&) = delete;
  ConvLayer& operator=(const ConvLayer&) = delete;

  const ConvParams& params() const { return params_; }
  const ConvOptions& options() const { return opt_; }
  int vlen() const { return vlen_; }
  int cb() const { return cb_; }  ///< input feature blocks
  int kb() const { return kb_; }  ///< output feature blocks
  int threads() const { return threads_; }

  /// Correctly-shaped blocked tensors for this layer. The output tensor
  /// carries the halo backward propagation needs (pad' = R-1-pad), so the
  /// same activation buffer serves as fwd output and bwd input.
  tensor::ActTensor make_input() const;
  tensor::ActTensor make_output() const;
  tensor::WtTensor make_weights() const;  ///< forward form [Kb][Cb][R][S][c][k]

  /// Forward propagation (Algorithm 3 / 4 / 5). `fargs` supplies fused-op
  /// operands when options().fuse needs them.
  void forward(const tensor::ActTensor& in, const tensor::WtTensor& wt,
               tensor::ActTensor& out, const FusionArgs& fargs = {});

  /// Backward propagation (Section II-I): dI from dO and the *forward-form*
  /// weights (the duality transform is applied internally and cached until
  /// `invalidate_weights` or a new wt pointer/content — callers pass the
  /// current weights every time; re-transform happens on every call since
  /// training updates weights each iteration).
  void backward(const tensor::ActTensor& grad_out, const tensor::WtTensor& wt,
                tensor::ActTensor& grad_in);

  /// Weight-gradient update (Section II-J, Algorithm 9): dW (+)= I * dO.
  /// dW is overwritten (the driver zero-initializes its accumulation).
  /// Not reentrant: privatized dW copies and streams are per-layer state.
  void update(const tensor::ActTensor& in, const tensor::ActTensor& grad_out,
              tensor::WtTensor& grad_wt);

  // --- introspection (used by benches/tests) ---
  std::string describe() const;
  int in_halo_h() const { return in_halo_h_; }
  int in_halo_w() const { return in_halo_w_; }
  int out_halo_h() const { return out_pad_h_; }
  int out_halo_w() const { return out_pad_w_; }
  int n_fwd_variants() const { return static_cast<int>(fwd_variants_.size()); }
  std::size_t fwd_stream_convs() const;
  /// Backward stream kernel calls: the dual layer's forward streams for the
  /// stride-1 duality path, the 1x1-strided streams otherwise (0 when the
  /// pass runs branchy, e.g. the GEMM fallback or use_streams=false).
  std::size_t bwd_stream_convs() const;
  std::size_t upd_stream_calls() const;
  /// The resolved plan this layer executes: every decision it made
  /// (blocking, backward algorithm, update strategy) and its execution
  /// context.
  const ConvPlan& plan() const { return plan_; }

 private:
  friend struct ConvLayerTestPeer;

  // setup helpers (conv_layer.cpp)
  void choose_blocking();
  void build_fwd_variants();
  void dryrun_forward();
  void setup_backward();
  void setup_update();
  void dryrun_backward();  ///< records bwd1x1_streams_ (1x1-strided path)
  void dryrun_update();    ///< records upd_streams_ (all three strategies)

  // drivers
  void forward_branchy(const float* in, const float* wt, float* out,
                       const FusionArgs& fargs, bool record_streams);
  void backward_duality(const tensor::ActTensor& grad_out,
                        tensor::ActTensor& grad_in);
  void backward_gemm(const tensor::ActTensor& grad_out,
                     tensor::ActTensor& grad_in);
  void backward_1x1_strided(const tensor::ActTensor& grad_out,
                            tensor::ActTensor& grad_in);
  void backward_1x1_branchy(const float* dout, const float* wtb, float* din,
                            bool record_streams);
  void update_branchy(const float* in, const float* dout, float* dw,
                      bool record_streams);
  float* upd_dw_base(int tid, float* dw);  ///< strategy-dependent target
  /// Run `body(tid)` on exactly the `threads_`-sized team every driver and
  /// stream was planned for. Work partitioning, per-thread streams and the
  /// minibatch/hybrid dW privatization are all keyed to that size, so a
  /// smaller delivered team (nested parallelism, OMP_DYNAMIC,
  /// OMP_THREAD_LIMIT) must fail loudly instead of silently skipping work:
  /// the body is not run and std::runtime_error is thrown.
  void parallel_exact(const char* what,
                      const std::function<void(int)>& body) const;

  ConvParams params_;
  ConvOptions opt_;
  ConvPlan plan_;  ///< resolved at construction; all setup consumes this
  int vlen_ = 16;
  int cb_ = 1, kb_ = 1;
  int threads_ = 1;

  // forward blocking (plan_.rbp x plan_.rbq register blocks)
  int q_full_ = 0, q_rem_ = 0;  ///< Q = q_full_*plan_.rbq + q_rem_
  int p_full_ = 0, p_rem_ = 0;

  // geometry (element strides; set at setup)
  int in_row_stride_ = 0, out_row_stride_ = 0;
  std::int64_t in_n_stride_ = 0, in_cb_stride_ = 0;
  std::int64_t out_n_stride_ = 0, out_kb_stride_ = 0;
  std::int64_t wt_kb_stride_ = 0, wt_cb_stride_ = 0;
  int in_halo_h_ = 0, in_halo_w_ = 0;  ///< physical input halo (>= pad)
  int in_shift_h_ = 0, in_shift_w_ = 0;  ///< in_halo - pad (frame shift)
  int out_pad_h_ = 0, out_pad_w_ = 0;  ///< physical output halo

  std::vector<const kernels::ConvMicrokernel*> fwd_variants_;
  std::array<int, 16> fwd_vmap_{};  ///< (p_edge, q_edge, beta0, relu) -> idx
  static int vmap_index(int p_edge, int q_edge, int beta0, int relu) {
    return ((p_edge * 2 + q_edge) * 2 + beta0) * 2 + relu;
  }
  /// Resolve a variant index; throws if the combination was not built.
  int variant_for(bool p_edge, bool q_edge, bool beta0, bool relu) const;
  std::vector<KernelStream> fwd_streams_;  ///< one per thread

  // backward (algorithm: plan_.bwd_algo)
  std::unique_ptr<ConvLayer> bwd_layer_;   ///< dual layer (duality paths)
  tensor::WtTensor bwd_wt_;                ///< transformed weights
  struct BwdGemmPlan;
  // shared_ptr: the deleter is bound where the type is complete
  // (conv_backward.cpp), keeping the plan out of this header.
  std::shared_ptr<BwdGemmPlan> bwd_gemm_;  ///< Algorithm-7 fallback plan

  // update (strategy and pixel blocks: plan_.upd_*)
  std::vector<const kernels::UpdMicrokernel*> upd_variants_;
  /// (c_edge, p_edge, q_edge, beta0) -> variant. c_edge selects the
  /// channel-remainder kernels (C % vlen rows) for the last Cb block; those
  /// entries stay -1 when C divides vlen.
  std::array<int, 16> upd_vmap_{};
  static int upd_vmap_index(int c_edge, int p_edge, int q_edge, int beta0) {
    return ((c_edge * 2 + p_edge) * 2 + q_edge) * 2 + beta0;
  }
  int upd_c_rem_ = 0;  ///< C % vlen (0 when divisible: no c-edge variants)
  /// Generated reduce-epilogue kernel for the privatized-dW sum (null when
  /// the strategy doesn't privatize, the plan disables it, or no SIMD).
  const kernels::ReduceMicrokernel* upd_reduce_ = nullptr;
  int upd_pb_full_ = 0, upd_pb_rem_ = 0, upd_qb_full_ = 0, upd_qb_rem_ = 0;
  int upd_groups_ = 0;  ///< hybrid thread-group count (0 unless hybrid)
  std::size_t upd_dw_size_ = 0;               ///< elements of one dW copy
  tensor::AlignedBuffer<float> upd_scratch_;  ///< per-copy dW buffers
  std::vector<KernelStream> upd_streams_;     ///< one per thread

  // backward 1x1-strided variants: (q_edge) -> kernel
  std::vector<const kernels::ConvMicrokernel*> bwd1x1_variants_;
  int bwd1x1_qfull_ = 0, bwd1x1_qrem_ = 0;  ///< Q / plan_.bwd1x1_rbq
  std::vector<KernelStream> bwd1x1_streams_;  ///< one per thread
};

}  // namespace xconv::core
