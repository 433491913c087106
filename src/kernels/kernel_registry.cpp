#include "kernels/kernel_registry.hpp"

#include <cstring>
#include <stdexcept>

#include "jit/qconv_kernel_gen.hpp"
#include "jit/verify/verifier.hpp"
#include "platform/envparse.hpp"
#include "quant/quantize.hpp"

namespace xconv::kernels {

namespace {

// Registry-insert-time static verification (XCONV_VERIFY_JIT): each wrapper
// verifies its freshly generated kernel exactly once, before it can be
// dispatched — zero steady-state cost, and a corrupt kernel throws here with
// a disassembly diagnostic instead of faulting at runtime.
template <class Kernel, class Desc>
const std::unique_ptr<Kernel>& verified(const std::unique_ptr<Kernel>& k,
                                        const Desc& d) {
  jit::verify::maybe_verify(jit::verify::contract_for(d), k->code(),
                            k->code_size(), d.key());
  return k;
}

class JitConvKernel final : public ConvMicrokernel {
 public:
  explicit JitConvKernel(const jit::ConvKernelDesc& d)
      : ConvMicrokernel(d), k_(jit::generate_conv_kernel(d)) {
    verified(k_, d);
  }

  void run(const float* in, const float* wt, float* out, const float* pf_in,
           const float* pf_wt, const float* pf_out) const override {
    (*k_)(in, wt, out, pf_in, pf_wt, pf_out);
  }
  Backend backend() const override { return Backend::jit; }

 private:
  std::unique_ptr<jit::ConvKernel> k_;
};

class JitUpdKernel final : public UpdMicrokernel {
 public:
  explicit JitUpdKernel(const jit::UpdKernelDesc& d)
      : UpdMicrokernel(d), k_(jit::generate_upd_kernel(d)) {
    verified(k_, d);
  }

  void run(const float* in, const float* dout, float* dw, const float* pf_in,
           const float* pf_dout, const float* pf_dw) const override {
    (*k_)(in, dout, dw, pf_in, pf_dout, pf_dw);
  }
  Backend backend() const override { return Backend::jit; }

 private:
  std::unique_ptr<jit::UpdKernel> k_;
};

class JitReduceKernel final : public ReduceMicrokernel {
 public:
  explicit JitReduceKernel(const jit::ReduceKernelDesc& d)
      : ReduceMicrokernel(d), k_(jit::generate_reduce_kernel(d)) {
    verified(k_, d);
  }

  void run(const float* src, float* dst, std::int64_t n) const override {
    const auto& d = desc_;
    const std::int64_t chunk = static_cast<std::int64_t>(d.unroll) * d.vlen;
    const std::int64_t nv = n / chunk;
    if (nv > 0) (*k_)(src, dst, nv);
    // Sub-chunk tail: the scalar loop, same copy order — fp addition is
    // associativity-sensitive but the order here is identical.
    for (std::int64_t e = nv * chunk; e < n; ++e) {
      float acc = src[e];
      for (int c = 1; c < d.copies; ++c) acc += src[d.copy_stride * c + e];
      dst[e] = acc;
    }
  }
  Backend backend() const override { return Backend::jit; }

 private:
  std::unique_ptr<jit::ReduceKernel> k_;
};

class JitCodecKernel final : public CodecMicrokernel {
 public:
  explicit JitCodecKernel(const jit::CodecKernelDesc& d)
      : CodecMicrokernel(d), k_(jit::generate_codec_kernel(d)) {
    verified(k_, d);
  }

  std::int64_t run(const CodecCall& call) const override {
    const std::int64_t nv = call.n / desc_.vlen;
    const std::int64_t head = nv * desc_.vlen;
    const std::int64_t pos = nv > 0 ? dispatch(call, nv) : 0;
    return codec_scalar_span(desc_, call, head, call.n, pos);
  }
  Backend backend() const override { return Backend::jit; }

 private:
  // Build the op's params block (see codec_kernel_gen.hpp table) and route
  // the CodecCall pointers into the (a, b, c) ABI slots.
  std::int64_t dispatch(const CodecCall& call, std::int64_t nv) const {
    switch (desc_.op) {
      case jit::CodecOp::fold_add:
        return (*k_)(call.f_in, call.f_io, nullptr, nv, nullptr);
      case jit::CodecOp::int16_quant: {
        const float params[3] = {call.scale,
                                 static_cast<float>(quant::kQMax),
                                 -static_cast<float>(quant::kQMax)};
        return (*k_)(call.f_io, call.w_out, nullptr, nv, params);
      }
      case jit::CodecOp::int16_dequant:
      case jit::CodecOp::int16_dequant_acc: {
        const float params[1] = {call.scale};
        return (*k_)(call.w_in, call.f_io, nullptr, nv, params);
      }
      case jit::CodecOp::bf16_pack: {
        static constexpr std::uint32_t params[6] = {
            0x7fffffffu, 0x7f800000u, 1u, 0x7fffu, 0x400000u, 0xffff0000u};
        return (*k_)(call.f_in, call.f_io, call.w_out, nv, params);
      }
      case jit::CodecOp::bf16_unpack:
      case jit::CodecOp::bf16_unpack_acc:
        return (*k_)(call.w_in, call.f_io, nullptr, nv, nullptr);
      case jit::CodecOp::topk_mag: {
        static constexpr std::uint32_t params[2] = {0x7fffffffu, 0x7f800000u};
        return (*k_)(call.f_in, call.u_out, nullptr, nv, params);
      }
      case jit::CodecOp::topk_compress: {
        std::uint32_t params[18];
        params[0] = call.threshold;
        for (std::uint32_t i = 0; i < 16; ++i) params[1 + i] = i;
        params[17] = 16;
        return (*k_)(call.u_in, call.u_out, nullptr, nv, params);
      }
    }
    return 0;
  }

  std::unique_ptr<jit::CodecKernel> k_;
};

// int16 blocks (fwd and upd share one ABI; see QMicrokernel).
template <class Desc>
class JitQKernel final : public QMicrokernel<Desc> {
 public:
  explicit JitQKernel(const Desc& d) : QMicrokernel<Desc>(d), k_(generate(d)) {
    verified(k_, d);
  }

  void run(const std::int16_t* a, const std::int16_t* b, float* out,
           float scale) const override {
    (*k_)(a, b, out, scale);
  }
  Backend backend() const override { return Backend::jit; }

 private:
  static auto generate(const quant::QKernelDesc& d) {
    return jit::generate_qconv_kernel(d);
  }
  static auto generate(const quant::QUpdKernelDesc& d) {
    return jit::generate_qupd_kernel(d);
  }
  std::unique_ptr<jit::QKernel<Desc>> k_;
};

// Per-family wiring: the JIT wrapper, the scalar reference factory, and the
// lowest ISA the family's generator emits for. A descriptor below that ISA,
// or above what the host runs, resolves to the scalar reference.
template <class Desc>
struct Family;
template <>
struct Family<jit::ConvKernelDesc> {
  using Jit = JitConvKernel;
  static constexpr auto scalar = &make_conv_scalar;
  static constexpr platform::Isa min_isa = platform::Isa::avx2;
};
template <>
struct Family<jit::UpdKernelDesc> {
  using Jit = JitUpdKernel;
  static constexpr auto scalar = &make_upd_scalar;
  static constexpr platform::Isa min_isa = platform::Isa::avx2;
};
template <>
struct Family<jit::ReduceKernelDesc> {
  using Jit = JitReduceKernel;
  static constexpr auto scalar = &make_reduce_scalar;
  static constexpr platform::Isa min_isa = platform::Isa::avx2;
};
template <>
struct Family<jit::CodecKernelDesc> {
  // Codec generation is avx512-only (validate() rejects avx2).
  using Jit = JitCodecKernel;
  static constexpr auto scalar = &make_codec_scalar;
  static constexpr platform::Isa min_isa = platform::Isa::avx512;
};
template <>
struct Family<quant::QKernelDesc> {
  using Jit = JitQKernel<quant::QKernelDesc>;
  static constexpr auto scalar = &make_qconv_scalar;
  static constexpr platform::Isa min_isa = platform::Isa::avx512_vnni;
};
template <>
struct Family<quant::QUpdKernelDesc> {
  using Jit = JitQKernel<quant::QUpdKernelDesc>;
  static constexpr auto scalar = &make_qupd_scalar;
  static constexpr platform::Isa min_isa = platform::Isa::avx512_vnni;
};

template <class Desc>
auto build(const Desc& d, BackendPref pref) {
  using F = Family<Desc>;
  const bool jit_ok = d.isa >= F::min_isa && d.isa <= platform::max_isa();
  if (pref == BackendPref::jit && !jit_ok)
    throw std::invalid_argument(
        "JIT backend needs a SIMD ISA the host supports");
  if (pref == BackendPref::scalar || !jit_ok) return F::scalar(d);
  return decltype(F::scalar(d))(std::make_unique<typename F::Jit>(d));
}

}  // namespace

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::jit: return "jit";
    case Backend::scalar: return "scalar";
  }
  return "unknown";
}

// Lenient by contract (pinned in test_kernel_registry): an unrecognized
// XCONV_BACKEND value means auto_pick, not an error.
BackendPref backend_pref_from_env() {
  if (const char* v = platform::env::get("XCONV_BACKEND")) {
    if (std::strcmp(v, "jit") == 0) return BackendPref::jit;
    if (std::strcmp(v, "scalar") == 0) return BackendPref::scalar;
  }
  return BackendPref::auto_pick;
}

KernelRegistry& KernelRegistry::instance() {
  static KernelRegistry r;
  return r;
}

// Lookup and insertion both happen under mu_, but the (potentially slow) JIT
// compile runs unlocked so concurrent first-use resolution of *different*
// descriptors is not serialized. Two threads racing on the *same* key may both
// build; emplace keeps the first and the loser's kernel is discarded — kernels
// are immutable and returned pointers stay valid for the process lifetime
// because entries are never erased. Both critical sections touch caches_
// directly under the lock, so thread-safety analysis sees each access.
template <class Kernel, class Desc>
const Kernel* KernelRegistry::lookup(const Desc& desc, BackendPref pref) {
  using Map = Cache<Desc, Kernel>;
  const typename Map::key_type key{desc, pref};
  {
    const platform::MutexLock lock(mu_);
    const Map& cache = std::get<Map>(caches_);
    if (const auto it = cache.find(key); it != cache.end()) {
      ++stats_.hits;
      return it->second.get();
    }
    ++stats_.misses;
  }
  // build() may throw; the cache is left intact.
  std::unique_ptr<Kernel> built = build(desc, pref);
  const platform::MutexLock lock(mu_);
  return std::get<Map>(caches_)
      .emplace(key, std::move(built))
      .first->second.get();
}

const ConvMicrokernel* KernelRegistry::conv(const jit::ConvKernelDesc& desc,
                                            BackendPref pref) {
  return lookup<ConvMicrokernel>(desc, pref);
}

const UpdMicrokernel* KernelRegistry::upd(const jit::UpdKernelDesc& desc,
                                          BackendPref pref) {
  return lookup<UpdMicrokernel>(desc, pref);
}

const ReduceMicrokernel* KernelRegistry::reduce(
    const jit::ReduceKernelDesc& desc, BackendPref pref) {
  return lookup<ReduceMicrokernel>(desc, pref);
}

const CodecMicrokernel* KernelRegistry::codec(const jit::CodecKernelDesc& desc,
                                              BackendPref pref) {
  return lookup<CodecMicrokernel>(desc, pref);
}

const QConvMicrokernel* KernelRegistry::qconv(const quant::QKernelDesc& desc,
                                              BackendPref pref) {
  return lookup<QConvMicrokernel>(desc, pref);
}

const QUpdMicrokernel* KernelRegistry::qupd(const quant::QUpdKernelDesc& desc,
                                            BackendPref pref) {
  return lookup<QUpdMicrokernel>(desc, pref);
}

std::size_t KernelRegistry::size() const {
  const platform::MutexLock lock(mu_);
  return std::apply([](const auto&... c) { return (c.size() + ...); },
                    caches_);
}

KernelRegistry::Stats KernelRegistry::stats() const {
  const platform::MutexLock lock(mu_);
  return stats_;
}

void KernelRegistry::reset_stats() {
  const platform::MutexLock lock(mu_);
  stats_ = Stats{};
}

std::unique_ptr<ReduceMicrokernel> make_reduce_jit(
    const jit::ReduceKernelDesc& d) {
  return std::make_unique<JitReduceKernel>(d);
}

std::unique_ptr<CodecMicrokernel> make_codec_jit(
    const jit::CodecKernelDesc& d) {
  return std::make_unique<JitCodecKernel>(d);
}

}  // namespace xconv::kernels
