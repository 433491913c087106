// Ablation: weight-update parallelization strategies (Section II-J) at
// several thread counts — shared-dW tasks vs per-thread copies + reduction
// vs the hybrid, on a 3x3 layer (many tasks) and a 1x1 layer (few tasks).
#include <benchmark/benchmark.h>

#include "bench_common.hpp"

using namespace xconv;

static void BM_UpdStrategy(benchmark::State& state) {
  const auto strategy = static_cast<core::UpdStrategy>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const int layer_idx = static_cast<int>(state.range(2));
  auto l = topo::resnet50_table1()[layer_idx];
  const auto p =
      topo::table1_params(l, std::max(4, platform::bench_minibatch(4)));
  // Pin the strategy through an explicit plan: the default plan, edited.
  core::ConvOptions o;
  o.threads = threads;
  o.plan = core::ConvLayer(p, o).plan();
  o.plan->upd_strategy = strategy;
  core::ConvLayer layer(p, o);
  auto t = bench::make_tensors(layer);
  for (auto _ : state) {
    layer.update(t.in, t.dout, t.dwt);
    benchmark::DoNotOptimize(t.dwt.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      static_cast<double>(p.flops()) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
  state.SetLabel(std::string(core::upd_strategy_name(strategy)) + " T" +
                 std::to_string(threads) + " layer" +
                 std::to_string(layer_idx + 1));
}

BENCHMARK(BM_UpdStrategy)
    ->ArgsProduct({{static_cast<int>(core::UpdStrategy::task),
                    static_cast<int>(core::UpdStrategy::minibatch),
                    static_cast<int>(core::UpdStrategy::hybrid)},
                   {2, 4},
                   {12 /*3x3*/, 13 /*1x1*/}})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
