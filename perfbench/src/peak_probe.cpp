#include "peak_probe.hpp"

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common.hpp"
#include "jit/assembler.hpp"
#include "jit/code_buffer.hpp"
#include "jit/verify/verifier.hpp"
#include "platform/cpu.hpp"

namespace perfbench {

namespace xj = xconv::jit;
using xconv::platform::Isa;

PeakProbe measure_peak_gflops_core(int trials) {
  const Isa isa = xconv::platform::effective_isa();
  if (isa == Isa::scalar)
    throw std::runtime_error("peak probe: host has no AVX2/AVX-512 FMA");
  const bool zmm = isa >= Isa::avx512;
  const xj::VecWidth w = zmm ? xj::VecWidth::zmm512 : xj::VecWidth::ymm256;
  // Enough independent chains to cover FMA latency x ports on current
  // cores; the two multiplicands live in the top registers.
  const int chains = zmm ? 24 : 12;
  const int lanes = zmm ? 16 : 8;
  const xj::Vec a{zmm ? 30 : 14}, b{zmm ? 31 : 15};

  xj::CodeBuffer buf(4096);
  xj::Assembler as(buf);
  for (int c = 0; c < chains; ++c) as.vxorps(w, xj::Vec{c}, xj::Vec{c}, xj::Vec{c});
  as.vxorps(w, a, a, a);
  as.vxorps(w, b, b, b);
  const std::size_t top = as.here();
  for (int c = 0; c < chains; ++c) as.vfmadd231ps(w, xj::Vec{c}, a, b);
  as.sub_ri(xj::Gpr::rdi, 1);  // iters arrives in rdi (SysV arg 0)
  as.cmp_ri(xj::Gpr::rdi, 0);
  as.jcc_back(xj::Cond::g, top);
  as.ret();
  buf.finalize();

  xj::verify::Contract contract;
  contract.isa = isa;
  contract.iters_gpr = static_cast<int>(xj::Gpr::rdi);
  xj::verify::verify(contract, buf.data(), buf.size(), "perfbench_peak_probe");

  using probe_fn = void (*)(std::int64_t);
  const probe_fn fn = buf.entry<probe_fn>();
  const double flops_per_iter = 2.0 * chains * lanes;

  // Calibrate one trial to about 40 ms.
  std::int64_t iters = 1 << 16;
  for (;;) {
    const auto t0 = Clock::now();
    fn(iters);
    const double s = seconds_since(t0);
    if (s > 0.01) {
      iters = static_cast<std::int64_t>(static_cast<double>(iters) * 0.04 / s) + 1;
      break;
    }
    iters *= 4;
  }
  std::vector<double> gflops;
  for (int t = 0; t < trials; ++t) {
    const auto t0 = Clock::now();
    fn(iters);
    gflops.push_back(flops_per_iter * static_cast<double>(iters) /
                     seconds_since(t0) / 1e9);
  }
  PeakProbe p;
  p.median_gflops = median(gflops);
  const auto q = quartiles(gflops);
  p.q1_gflops = q.first;
  p.q3_gflops = q.second;
  p.trials = trials;
  p.chains = chains;
  p.isa = xconv::platform::isa_name(isa);
  return p;
}

void report_peak(Result& r, const PeakProbe& p) {
  r.add("host.peak_gflops_core", p.median_gflops, "GFLOPS");
  r.add("host.peak_iqr_share", (p.q3_gflops - p.q1_gflops) / p.median_gflops, "share");
}

}  // namespace perfbench
