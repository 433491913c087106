// rn50_gxm: ResNet-50 (224 px, 1000 classes, minibatch 4, 4 threads)
// through the GxM graph — training steps, then inference batches on the same
// graph, then a sweep of the graph's own ConvLayers. This is the paper's
// Fig. 9 operating point (minibatch >= threads); conv is about a third of a
// step here, so GxM node work (Input/BN/Eltwise/Split/apply) weighs in.
//
// Untraced: Trainer::train(1), Trainer::inference(1) and a sweep of the
// graph's ConvLayers take turns until the run's time is spent, so each
// metric samples the whole run and a slow spell of the host hits all of
// them alike; each reports its median. Traced: Trainer steps, then the same
// steps on a second graph built from the same seed, walked node by node
// under spans; its losses must equal Trainer's bit for bit.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "graph_walk.hpp"
#include "gxm/trainer.hpp"
#include "peak_probe.hpp"
#include "topo/resnet50.hpp"

namespace perfbench {

namespace {
namespace gxm = xconv::gxm;

constexpr int kMinibatch = 4, kImage = 224, kClasses = 1000;
/// Coverage of a step span by its node spans, must be within this of 1.
constexpr double kCoverageTol = 0.02;

/// Node type x pass pairs that do work in ResNet-50 (the rest are no-ops:
/// Input has no backward; BatchNorm and InnerProduct compute their
/// gradients inside backward, so only Convolution has a "grads" pass).
const char* const kNodePasses[] = {
    "gxm.Input.fwd", "gxm.Convolution.fwd", "gxm.BatchNorm.fwd",
    "gxm.MaxPool.fwd", "gxm.Eltwise.fwd", "gxm.Split.fwd", "gxm.AvgPool.fwd",
    "gxm.InnerProduct.fwd", "gxm.SoftmaxLoss.fwd",
    "gxm.Convolution.bwd", "gxm.BatchNorm.bwd", "gxm.MaxPool.bwd",
    "gxm.Eltwise.bwd", "gxm.Split.bwd", "gxm.AvgPool.bwd",
    "gxm.InnerProduct.bwd", "gxm.SoftmaxLoss.bwd",
    "gxm.Convolution.grads",
    "gxm.Convolution.apply", "gxm.BatchNorm.apply", "gxm.InnerProduct.apply",
    "gxm.Input.infer", "gxm.Convolution.infer", "gxm.BatchNorm.infer",
    "gxm.MaxPool.infer", "gxm.Eltwise.infer", "gxm.Split.infer",
    "gxm.AvgPool.infer", "gxm.InnerProduct.infer", "gxm.SoftmaxLoss.infer",
};

gxm::Solver solver() {
  gxm::Solver s;
  s.lr = 0.001f;
  return s;
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void check_losses(Result& r, const std::vector<float>& losses) {
  for (std::size_t i = 0; i < losses.size(); ++i)
    r.checks.check(std::isfinite(losses[i]), "rn50_gxm step " + std::to_string(i) + " loss finite");
}

void print_steps(const char* what, const std::vector<double>& s) {
  std::fprintf(stderr, "rn50_gxm: %zu %s, median %.1f ms:", s.size(), what, 1e3 * median(s));
  for (const double t : s) std::fprintf(stderr, " %.0f", 1e3 * t);
  std::fprintf(stderr, "\n");
}

void measure_untraced(const Args& a, Result& r, gxm::Graph& g, std::vector<float>& losses,
                      SteadyMisses& steady) {
  gxm::Trainer trainer(g, solver());
  GraphConvSweep convs(g);
  r.checks.check(std::isfinite(trainer.inference(1).last_loss), "rn50_gxm warm-up inference loss finite");
  convs.run(false);
  std::vector<double> step_s, infer_s;
  const CacheMisses before = CacheMisses::now();
  const Budget b(a.seconds);
  while (b.more(step_s.size(), 4)) {
    const gxm::TrainStats st = trainer.train(1);
    step_s.push_back(st.seconds);
    losses.push_back(st.last_loss);
    const gxm::TrainStats in = trainer.inference(1);
    infer_s.push_back(in.seconds);
    r.checks.check(std::isfinite(in.last_loss), "rn50_gxm inference loss finite");
    convs.run();
  }
  steady.add(before);
  check_losses(r, losses);
  print_steps("training steps", step_s);
  print_steps("inference batches", infer_s);
  r.add("train_img_s", kMinibatch / median(step_s), "img/s");
  r.add("infer_img_s", kMinibatch / median(infer_s), "img/s");
  r.add("conv_fwd_gflops", convs.gflops(0), "GFLOPS");
  r.add("conv_bwd_gflops", convs.gflops(1), "GFLOPS");
  r.add("conv_upd_gflops", convs.gflops(2), "GFLOPS");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void measure_traced(const Args& a, Result& r, std::unique_ptr<gxm::Graph> g,
                    const std::string& topo, const gxm::GraphOptions& go,
                    std::vector<float>& losses, SteadyMisses& steady, Tracer& tr) {
  // Untraced Trainer steps: the reference losses and the overhead baseline.
  std::vector<double> step_s;
  {
    gxm::Trainer trainer(*g, solver());
    const CacheMisses before = CacheMisses::now();
    const Budget b(0.4 * a.seconds);
    while (b.more(step_s.size(), 4)) {
      const gxm::TrainStats st = trainer.train(1);
      step_s.push_back(st.seconds);
      losses.push_back(st.last_loss);
    }
    steady.add(before);
  }
  check_losses(r, losses);
  print_steps("untraced training steps", step_s);

  // The same steps, traced, on a second graph from the same seed.
  g.reset();
  double setup2 = 0;
  g = build_graph(topo, go, &setup2);
  double conv_gflop = 0;
  for (const gxm::Task& t : g->fwd_schedule())
    if (auto* c = dynamic_cast<gxm::ConvNode*>(t.node))
      conv_gflop += static_cast<double>(c->layer()->params().flops()) / 1e9;
  const gxm::Solver s = solver();
  const CacheMisses before = CacheMisses::now();
  for (std::size_t i = 0; i < losses.size(); ++i) {
    traced_train_step(*g, s, tr, static_cast<int>(i));
    const float l = g->loss();
    r.checks.check(same_bits(l, losses[i]),
                   "rn50_gxm traced step " + std::to_string(i) + " loss " + std::to_string(l) +
                       " bitwise equal to Graph::train_step's " + std::to_string(losses[i]));
  }
  traced_infer(*g, tr, 0);  // warm-up
  int batches = 0;
  const Budget b(0.15 * a.seconds);
  while (b.more(static_cast<std::size_t>(batches), 4)) {
    traced_infer(*g, tr, ++batches);
    r.checks.check(std::isfinite(g->loss()), "rn50_gxm traced inference loss finite");
  }
  steady.add(before);

  // Step 0 is the warm-up; per-type times are medians over steps 1.. .
  std::map<std::string, double> ms = median_ms_per_step(tr, "gxm.", 1);
  for (const char* cat : kNodePasses) {
    const double v = ms[cat];
    r.checks.check(v > 0, std::string("rn50_gxm spans recorded for ") + cat);
    r.add(std::string(cat) + "_ms", v, "ms");
  }
  const char* const conv_pass[3][2] = {{"fwd", "gxm.Convolution.fwd"},
                                       {"bwd", "gxm.Convolution.bwd"},
                                       {"upd", "gxm.Convolution.grads"}};
  for (const auto& [pass, cat] : conv_pass)
    r.add(std::string("gxm.conv.") + pass + "_gflops", conv_gflop / (1e-3 * ms[cat]), "GFLOPS");
  const double cov = span_coverage(tr, "gxm.step", 1);
  r.checks.check(std::abs(cov - 1.0) <= kCoverageTol,
                 "rn50_gxm node spans cover " + std::to_string(cov) + " of the step");
  const double cov_inf = span_coverage(tr, "gxm.infer_batch", 1);
  r.checks.check(std::abs(cov_inf - 1.0) <= kCoverageTol,
                 "rn50_gxm node spans cover " + std::to_string(cov_inf) + " of the inference batch");
  const double traced_ms = ms["gxm.step"], untraced_ms = 1e3 * median(step_s);
  r.add("gxm.span_coverage", cov, "share");
  r.add("trace.overhead_share", (traced_ms - untraced_ms) / untraced_ms, "share");
  std::fprintf(stderr, "rn50_gxm: traced step %.1f ms vs untraced %.1f ms, coverage %.5f, %d traced inference batches\n",
               traced_ms, untraced_ms, cov, batches);

  report_peak(r, measure_peak_gflops_core(9));
}
}  // namespace

void run_rn50_gxm(const Args& a, Result& r, Tracer* tr) {
  gxm::GraphOptions go;
  go.threads = bench_threads();
  go.seed = a.seed;
  const std::string topo = xconv::topo::resnet50_topology(kMinibatch, kImage, kClasses);

  const CacheMisses start = CacheMisses::now();
  auto g = build_graph(topo, go, &r.setup_s);
  if (a.setup_only) return;

  // Warm-up step (first touch of every buffer); its loss is checked and,
  // in the traced run, compared like the others.
  std::vector<float> losses{gxm::Trainer(*g, solver()).train(1).last_loss};
  SteadyMisses steady;
  if (tr == nullptr)
    measure_untraced(a, r, *g, losses, steady);
  else
    measure_traced(a, r, std::move(g), topo, go, losses, steady, *tr);
  report_cache_counters(r, start, steady, tr != nullptr);
}

}  // namespace perfbench
