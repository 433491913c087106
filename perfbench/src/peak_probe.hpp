// Same-run single-core peak probe: a generated kernel of independent
// vfmadd231ps register chains (emitted with jit::Assembler, checked by the
// JIT verifier before it runs). Its median over trials is the denominator
// of every %-of-peak figure the benchmark reports.
#pragma once

#include "common.hpp"

namespace perfbench {

struct PeakProbe {
  double median_gflops = 0;
  double q1_gflops = 0, q3_gflops = 0;  ///< spread over the trials
  int trials = 0;
  int chains = 0;
  const char* isa = "";
};

/// Measures the fp32 FMA peak of the calling thread's core. Throws if the
/// host has no AVX2/AVX-512 FMA or the verifier rejects the kernel.
PeakProbe measure_peak_gflops_core(int trials);

/// Adds host.peak_gflops_core and its interquartile share to a traced run.
void report_peak(Result& r, const PeakProbe& p);

}  // namespace perfbench
