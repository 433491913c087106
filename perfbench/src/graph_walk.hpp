// Benchmark-side views of a gxm::Graph through its public API: the conv
// sweep over the graph's own ConvLayers, and the traced node walk that
// reproduces Graph::train_step / Graph::forward with one span per
// node x pass.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "gxm/graph.hpp"
#include "gxm/nodes.hpp"
#include "trace.hpp"

namespace perfbench {

/// Parses `topology` and builds the graph; returns it with the build time.
std::unique_ptr<xconv::gxm::Graph> build_graph(const std::string& topology,
                                               const xconv::gxm::GraphOptions& o,
                                               double* seconds);

/// Times ConvLayer::forward/backward and the update (ConvNode::compute_grads,
/// one ConvLayer::update into the node's own dW) of every Convolution node
/// on the node's own ports, one sweep per run() call. It overwrites only
/// activations and gradients, which the next step recomputes, so sweeps can
/// interleave with training steps.
class GraphConvSweep {
 public:
  explicit GraphConvSweep(xconv::gxm::Graph& g);
  /// One sweep; `record` false makes it a warm-up.
  void run(bool record = true);
  /// Total FLOPs / sum over layers of the median call time, per pass
  /// (0 fwd, 1 bwd, 2 upd).
  double gflops(int pass) const;

 private:
  std::vector<xconv::gxm::ConvNode*> convs_;
  double gflop_ = 0;
  std::vector<std::vector<double>> ms_;  ///< [3 * layer + pass] -> seconds
};

/// One training step exactly as Graph::train_step walks it, with a span per
/// node x pass (cat "gxm.<Type>.<fwd|bwd|grads|apply>") under a "step" span,
/// and a ConvLayer span under each Convolution fwd/bwd.
void traced_train_step(xconv::gxm::Graph& g, const xconv::gxm::Solver& s,
                       Tracer& tr, int step);
/// One inference batch as Graph::forward(false) walks it (cat
/// "gxm.<Type>.infer" under an "infer" span).
void traced_infer(xconv::gxm::Graph& g, Tracer& tr, int step);

/// Per category starting with `cat_prefix`: the median over steps
/// >= first_step of the summed duration of its spans in each step.
std::map<std::string, double> median_ms_per_step(
    const Tracer& tr, const std::string& cat_prefix, int first_step);

/// Median over steps of (sum of a step span's children) / (its duration).
double span_coverage(const Tracer& tr, const std::string& step_cat,
                     int first_step);

}  // namespace perfbench
