// Ablation: microkernel backend — runtime JIT (constants baked into code)
// vs the scalar reference loops. The gap is the payoff of runtime code
// specialization the paper argues for (Section I: statically-tuned kernels
// "do not achieve the highest performance").
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "kernels/kernel_registry.hpp"

using namespace xconv;

static void BM_Backend(benchmark::State& state) {
  const auto pref = static_cast<kernels::BackendPref>(state.range(0));
  const auto p = topo::table1_params(topo::resnet50_table1()[12],
                                     platform::bench_minibatch(1));
  core::ConvOptions o;
  o.backend = pref;
  if (pref == kernels::BackendPref::scalar) o.isa = platform::Isa::scalar;
  core::ConvLayer layer(p, o);
  auto t = bench::make_tensors(layer);
  for (auto _ : state) {
    layer.forward(t.in, t.wt, t.out);
    benchmark::DoNotOptimize(t.out.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      static_cast<double>(p.flops()) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
  switch (pref) {
    case kernels::BackendPref::jit: state.SetLabel("jit"); break;
    case kernels::BackendPref::scalar: state.SetLabel("scalar"); break;
    default: state.SetLabel("auto");
  }
}

BENCHMARK(BM_Backend)
    ->Arg(static_cast<int>(kernels::BackendPref::jit))
    ->Arg(static_cast<int>(kernels::BackendPref::scalar))
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
