// ConvPlan: every per-layer planning decision as one inspectable value.
//
// The paper's performance rests on per-layer choices — register blocking
// RBP/RBQ (Section II-B), the 1x1 Cb-in-kernel transformation (II-C), the
// backward algorithm (II-I), the weight-update pixel blocking and
// parallelization strategy (II-J) — that historically lived inline in
// ConvLayer's setup helpers. This header pulls them into an explicit
// `ConvPlan` value type so plans can be
//
//   * inspected   — ConvLayer::plan() returns the decisions it executes,
//   * reproduced  — plan_default() re-derives today's heuristics
//                   bit-identically (pinned by tests/test_plan.cpp),
//   * persisted   — a stable JSON serialization keyed by PlanKey (a hash of
//                   ConvParams x pass x ISA x vlen x threads) round-trips
//                   through the PlanCache's disk directory,
//   * tuned       — autotune_plan() (plan_autotune.cpp) searches the plan
//                   space with the existing timer machinery; winners land in
//                   the cache and every later ConvLayer construction for the
//                   same key picks them up with zero planning work.
//
// Resolution order in ConvLayer (resolve_plan), two sources:
//   1. ConvOptions::plan        — explicit plan, used as given (validated);
//                                 the one way to pin a decision,
//   2. PlanCache::get_or_create — memory, then disk (XCONV_PLAN_CACHE),
//                                 then autotune (XCONV_AUTOTUNE=1) or
//                                 plan_default().
// Whatever the source, execution context follows the caller: the plan's
// backend/use_streams/prefetch are replaced by the request's, and its
// isa/vlen/threads must match the request's (an explicit plan that does not
// match throws).
// Corrupt, truncated or version-mismatched cache entries are reported on
// stderr and fall back to plan_default() — a bad cache can cost performance
// but never correctness.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/conv_params.hpp"
#include "core/partition.hpp"
#include "kernels/kernel_registry.hpp"
#include "platform/cpu.hpp"
#include "platform/sync.hpp"
#include "platform/thread_annotations.hpp"

namespace xconv::core {

// ---------------------------------------------------------------------------
// Named planning constants (formerly magic numbers scattered across
// conv_layer.cpp, conv_update.cpp, conv_backward.cpp and partition.cpp).
// tests/test_plan.cpp pins the crossover behavior each one induces.
// ---------------------------------------------------------------------------

/// Forward RBQ cap: at most 14 of the ISA's accumulator registers go to the
/// fast output dimension, leaving headroom for RBP > 1 on narrow layers
/// (Section II-B picks 2x14 for 7x7 ResNet-50 layers on AVX-512).
inline constexpr int kFwdRbqCap = 14;

/// Minimum register-blocking extent worth scanning for: below 4 pixels the
/// FMA chains are too short to hide latency, so pick_rb falls back to
/// min(dim, cap) instead of a tiny exact divisor.
inline constexpr int kRbMinExtent = 4;

/// Weight-update pixel-block caps (Section II-J): BP x BQ = P x Q maximizes
/// dW register reuse but spills the cache on large spatial dims.
inline constexpr int kUpdBpCap = 8;
inline constexpr int kUpdBqCap = 32;

/// Minimum update pixel-block extent (update kernels tolerate shorter chains
/// than forward since dW accumulators carry across the whole patch).
inline constexpr int kUpdBlockMin = 2;

/// Backward GEMM fallback (Algorithm 7): max N (output pixels) per GEMM
/// call, matching the JIT GEMM generator's accumulator budget.
inline constexpr int kBwdGemmMaxCols = 28;

/// Traffic model (Section II-J): minibatch parallelism moves ~2 extra dW
/// volumes per thread (write the private copy + read it back in reduction).
inline constexpr double kUpdCopyTrafficFactor = 2.0;

/// Hybrid needs enough threads to form >= 2 groups with intra-group task
/// parallelism; below 4 threads the grouping overhead cannot pay off.
inline constexpr int kHybridMinThreads = 4;

/// Hybrid is preferred over pure minibatch only when the task space offers
/// at least nthreads / kHybridTaskDivisor independent dW blocks.
inline constexpr int kHybridTaskDivisor = 2;

/// Minibatch/hybrid schemes need >= 2 images to split across copies.
inline constexpr int kUpdMinMinibatch = 2;

/// Update loop-order traffic model: pixel_outer re-touches the whole dW
/// working set once per pixel block unless it stays cache-resident; this is
/// the per-core L2 budget (bytes) below which that re-touching is free.
inline constexpr std::int64_t kUpdLoopOrderL2Budget = std::int64_t{1} << 20;

/// Default reduce-epilogue chunk unroll (vectors per generated-kernel
/// iteration); autotune may pick any value in [1, 8].
inline constexpr int kUpdReduceUnrollDefault = 4;

// ---------------------------------------------------------------------------
// Plan value type
// ---------------------------------------------------------------------------

/// Backward-pass algorithm (Section II-I), selected by layer shape.
enum class BwdAlgo { duality_stride1, duality_1x1_strided, gemm_fallback };
const char* bwd_algo_name(BwdAlgo a);

/// Which passes a plan covers: `fwd` for forward-only layers (the backward
/// duality's internal dual layer, inference), `train` for all three passes.
enum class PlanPass { fwd, train };
const char* plan_pass_name(PlanPass pass);

/// Weight-update driver loop order (Section II-J). `task_outer` walks each
/// dW task's full pixel space (maximal dW register/cache residency);
/// `pixel_outer` walks pixel blocks outermost and sweeps all tasks per block
/// (activations stay cache-resident across the task sweep). Both orders
/// accumulate each dW block's contributions in identical (n, pjb, qib)
/// sequence, so they are bitwise-equivalent.
enum class UpdLoopOrder { task_outer, pixel_outer };
const char* upd_loop_order_name(UpdLoopOrder o);

struct PlanKey;

/// The complete set of planning decisions for one ConvLayer. Execution
/// context (isa/vlen/threads/backend/streams/prefetch) is carried for
/// provenance and validated on cache load; the remaining fields are the
/// tuned decisions ConvLayer executes.
struct ConvPlan {
  // Execution context.
  platform::Isa isa = platform::Isa::avx512;
  int vlen = 16;
  int threads = 1;
  kernels::BackendPref backend = kernels::BackendPref::auto_pick;
  bool use_streams = true;
  bool prefetch = true;

  // Forward (Sections II-B/II-C).
  int rbp = 1, rbq = 1;        ///< register blocking
  bool cb_in_kernel = false;   ///< 1x1 path: Cb loop inside the kernel

  // Backward (Section II-I). Meaningful for pass=train plans; bwd1x1_rbq /
  // bwd_gemm_qc are 0 unless the respective algorithm is selected.
  BwdAlgo bwd_algo = BwdAlgo::duality_stride1;
  int bwd1x1_rbq = 0;   ///< register blocking of the 1x1-strided dual path
  int bwd_gemm_qc = 0;  ///< Q-chunk per GEMM call in the Algorithm-7 fallback

  // Weight update (Section II-J). upd_strategy is always resolved (never
  // auto_pick) in a materialized plan.
  UpdStrategy upd_strategy = UpdStrategy::task;
  int upd_bp = 0, upd_bq = 0;  ///< pixel blocking (0 for pass=fwd plans)
  /// Driver loop order (see UpdLoopOrder; heuristic in plan_default).
  UpdLoopOrder upd_loop_order = UpdLoopOrder::task_outer;
  /// Replay/run the privatized-dW reduce epilogue through a generated
  /// kernel (bitwise-identical to the scalar loop; off = always scalar).
  bool upd_reduce_jit = true;
  /// Reduce-kernel chunk unroll: vectors per generated iteration, in [1, 8].
  int upd_reduce_unroll = kUpdReduceUnrollDefault;

  /// Provenance: true when the plan came out of an autotune search rather
  /// than the closed-form default heuristics.
  bool tuned = false;

  bool operator==(const ConvPlan&) const = default;

  /// Check the plan against a layer shape + pass; throws
  /// std::invalid_argument naming the violated invariant (register budget,
  /// algorithm/shape mismatch, extent bounds).
  void validate(const ConvParams& p, PlanPass pass) const;

  /// Stable, versioned JSON serialization (one flat object). The key is
  /// embedded so a cache file is self-describing and collision-checked.
  std::string to_json(const PlanKey& key) const;
};

// ---------------------------------------------------------------------------
// Plan identity
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit over bytes — the plan-cache hash. Stable across platforms,
/// compilers and runs (unlike std::hash); pinned by tests/test_plan.cpp.
std::uint64_t fnv1a64(const std::string& s);

/// Cache identity of a plan: layer shape x pass x ISA x vlen x threads.
/// Everything else (backend, streams, prefetch) is execution context the
/// caller re-imposes — a tuned blocking is equally valid under either
/// stream mode.
struct PlanKey {
  ConvParams params;
  PlanPass pass = PlanPass::train;
  platform::Isa isa = platform::Isa::avx512;
  int vlen = 16;
  int threads = 1;

  bool operator==(const PlanKey&) const = default;

  /// Stable text form, e.g.
  /// "conv(N=1,...)|pass=train|isa=avx512|vlen=16|threads=4|v1".
  std::string to_string() const;
  std::uint64_t hash() const;       ///< fnv1a64(to_string())
  std::string hash_hex() const;     ///< 16 lowercase hex digits
};

// ---------------------------------------------------------------------------
// Default planning (the closed-form heuristics, moved verbatim from the
// ConvLayer setup helpers; test_plan.cpp diffs them against a reference
// re-implementation across the fuzz shapes and both topo layer sets).
// ---------------------------------------------------------------------------

/// What a caller wants planned: the execution context of the layer.
struct PlanRequest {
  platform::Isa isa = platform::Isa::avx512;
  kernels::BackendPref backend = kernels::BackendPref::auto_pick;
  bool use_streams = true;
  bool prefetch = true;
  int threads = 1;  ///< resolved thread count (>= 1)
  bool fwd_only = false;

  PlanKey key(const ConvParams& p) const;
};

/// Divisor-preferring block-size pick shared by every planning dimension:
/// prefer exact divisors of `dim` (no edge kernel), then large extents,
/// within [floor, cap]; min(dim, cap) when nothing in range divides.
int pick_block_extent(int dim, int cap, int floor);

/// The default plan: reproduces the historical inline heuristics
/// bit-identically.
ConvPlan plan_default(const ConvParams& p, const PlanRequest& req);

/// Full resolution as used by the ConvLayer constructor: the explicit plan
/// if given, else the cache (disk/autotune/default), with the request's
/// execution context applied either way. See the file header.
ConvPlan resolve_plan(const ConvParams& p, const PlanRequest& req,
                      const std::optional<ConvPlan>& explicit_plan);

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

/// Bump whenever the serialized field set changes; the lint rule
/// `plan-schema` (tools/lint/xconv_lint.py) locks fields x version against
/// tools/lint/plan_schema.json.
inline constexpr int kPlanSchemaVersion = 2;

enum class PlanLoadStatus {
  ok,
  version_mismatch,  ///< well-formed but older/newer schema
  key_mismatch,      ///< well-formed but describes a different layer/context
  corrupt,           ///< truncated/garbled JSON or out-of-range field
};
const char* plan_load_status_name(PlanLoadStatus s);

/// Parse a serialized plan, checking schema version and key identity
/// against `expect`. `out` is written only on `ok`.
PlanLoadStatus plan_from_json(const std::string& text, const PlanKey& expect,
                              ConvPlan* out);

// ---------------------------------------------------------------------------
// PlanCache
// ---------------------------------------------------------------------------

/// Thread-safe plan memoization: in-memory map keyed by PlanKey, optionally
/// backed by a disk directory of one JSON file per key
/// (`xconv_plan_<hash16>.json`). Lookup/insert hold the mutex; plan
/// creation (which may construct layers and run an autotune search) and all
/// file I/O run outside it, mirroring the KernelRegistry's two-phase
/// locking. Racing creators for the same key both build; the first insert
/// wins and the loser's plan is discarded — plans are immutable values.
class PlanCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;        ///< served from memory
    std::uint64_t misses = 0;      ///< make() had to run
    std::uint64_t disk_hits = 0;   ///< served from a valid disk entry
    std::uint64_t disk_stale = 0;  ///< disk entry rejected (fallback path)
    std::uint64_t stores = 0;      ///< disk files written
  };

  PlanCache() = default;
  explicit PlanCache(std::string dir);
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Process-wide instance; its directory comes from XCONV_PLAN_CACHE
  /// (unset = memory-only) on first use.
  static PlanCache& instance();

  /// Memoized lookup: memory, then disk, then `make()`. Newly made plans
  /// are inserted and (when a directory is set) persisted.
  ConvPlan get_or_create(const PlanKey& key,
                         const std::function<ConvPlan()>& make);

  /// Non-creating probe (memory then disk). Returns false when absent.
  bool peek(const PlanKey& key, ConvPlan* out);

  /// Insert (last writer wins) and persist when a directory is set.
  void put(const PlanKey& key, const ConvPlan& plan);

  /// Redirect the disk directory (tests, bench_autotune --cache=DIR).
  /// Entries already in memory are kept; pass "" for memory-only.
  void set_directory(const std::string& dir);
  std::string directory() const;

  /// Path the key's entry would occupy on disk ("" when memory-only).
  std::string file_path(const PlanKey& key) const;

  void clear();  ///< drop all in-memory entries (disk files are kept)
  Stats stats() const;
  void reset_stats();
  std::size_t size() const;

 private:
  bool load_from_disk(const PlanKey& key, ConvPlan* out);
  void store_to_disk(const PlanKey& key, const ConvPlan& plan);

  mutable platform::Mutex mu_;
  std::string dir_ XCONV_GUARDED_BY(mu_);
  std::unordered_map<std::string, ConvPlan> map_ XCONV_GUARDED_BY(mu_);
  Stats stats_ XCONV_GUARDED_BY(mu_);
};

// ---------------------------------------------------------------------------
// Autotuning (implemented in plan_autotune.cpp; it constructs ConvLayers,
// which plan.cpp cannot reference by header without a cycle).
// ---------------------------------------------------------------------------

struct AutotuneConfig {
  int runs = 3;    ///< measured repetitions per candidate
  int warmup = 1;  ///< unmeasured warmup repetitions
  int max_fwd_candidates = 8;
  int max_upd_candidates = 8;
};

struct AutotuneResult {
  ConvPlan plan;             ///< the winner (tuned = true)
  int candidates_tried = 0;  ///< distinct plans measured (incl. default)
  double default_fwd_gflops = 0, tuned_fwd_gflops = 0;
  double default_upd_gflops = 0, tuned_upd_gflops = 0;
};

/// Measure candidate plans for this layer and return the fastest; the
/// default plan is always a candidate, so tuned >= default within one
/// session's measurements by construction.
AutotuneResult autotune_plan(const ConvParams& p, const PlanRequest& req,
                             const AutotuneConfig& cfg = {});

/// XCONV_AUTOTUNE=1: resolve_plan autotunes cache misses (train pass only).
bool autotune_enabled_from_env();

/// True on threads currently inside autotune_plan(): candidate/nested layer
/// constructions must plan with plan_default(), never recurse into tuning.
bool autotune_in_progress();

namespace detail {
/// RAII guard autotune_plan() holds while constructing/measuring candidate
/// layers (internal — see autotune_in_progress()).
struct AutotuneScope {
  AutotuneScope();
  ~AutotuneScope();
  AutotuneScope(const AutotuneScope&) = delete;
  AutotuneScope& operator=(const AutotuneScope&) = delete;
};
}  // namespace detail

}  // namespace xconv::core

