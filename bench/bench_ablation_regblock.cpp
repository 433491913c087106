// Ablation: register blocking (Section II-B). Sweeps RBQ (and an RBP=2
// variant) on a fixed 3x3 layer; throughput should rise until the
// independent accumulation chains cover the FMA latency (~10 chains) and
// then plateau, with divisor-friendly values avoiding edge kernels.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"

using namespace xconv;

static void BM_RegisterBlocking(benchmark::State& state) {
  const int rbq = static_cast<int>(state.range(0));
  const int rbp = static_cast<int>(state.range(1));
  const auto p = topo::table1_params(topo::resnet50_table1()[12],
                                     platform::bench_minibatch(1));
  // Pin the blocking through an explicit plan: the default plan, edited.
  core::ConvOptions o;
  o.plan = core::ConvLayer(p, o).plan();
  o.plan->rbq = rbq;
  o.plan->rbp = rbp;
  core::ConvLayer layer(p, o);
  auto t = bench::make_tensors(layer);
  for (auto _ : state) {
    layer.forward(t.in, t.wt, t.out);
    benchmark::DoNotOptimize(t.out.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      static_cast<double>(p.flops()) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
  state.counters["chains"] = rbp * rbq;
}

BENCHMARK(BM_RegisterBlocking)
    ->ArgsProduct({{1, 2, 4, 7, 10, 14}, {1}})
    ->Args({14, 2})
    ->Args({7, 4})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
