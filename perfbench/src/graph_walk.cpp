#include "graph_walk.hpp"

#include "gxm/nodes.hpp"
#include "gxm/parser.hpp"

namespace perfbench {

namespace gxm = xconv::gxm;

std::unique_ptr<gxm::Graph> build_graph(const std::string& topology,
                                        const gxm::GraphOptions& o,
                                        double* seconds) {
  const auto t0 = Clock::now();
  auto g = std::make_unique<gxm::Graph>(gxm::parse_topology(topology), o);
  *seconds = seconds_since(t0);
  return g;
}

namespace {
std::vector<gxm::ConvNode*> conv_nodes(gxm::Graph& g) {
  std::vector<gxm::ConvNode*> v;
  for (const gxm::Task& t : g.fwd_schedule())
    if (auto* c = dynamic_cast<gxm::ConvNode*>(t.node)) v.push_back(c);
  return v;
}
}  // namespace

GraphConvSweep::GraphConvSweep(gxm::Graph& g) : convs_(conv_nodes(g)) {
  for (gxm::ConvNode* c : convs_)
    gflop_ += static_cast<double>(c->layer()->params().flops()) / 1e9;
  ms_.resize(convs_.size() * 3);
}

void GraphConvSweep::run(bool record) {
  for (std::size_t i = 0; i < convs_.size(); ++i) {
    gxm::ConvNode& c = *convs_[i];
    double s[3];
    auto t0 = Clock::now();
    c.layer()->forward(c.bottoms[0]->act, c.weights(), c.tops[0]->act);
    s[0] = seconds_since(t0);
    t0 = Clock::now();
    c.layer()->backward(c.tops[0]->grad, c.weights(), c.bottoms[0]->grad);
    s[1] = seconds_since(t0);
    t0 = Clock::now();
    c.compute_grads();
    s[2] = seconds_since(t0);
    if (record)
      for (int pass = 0; pass < 3; ++pass) ms_[3 * i + pass].push_back(s[pass]);
  }
}

double GraphConvSweep::gflops(int pass) const {
  double s = 0;
  for (std::size_t i = 0; i < convs_.size(); ++i) s += median(ms_[3 * i + pass]);
  return gflop_ / s;
}

void traced_train_step(gxm::Graph& g, const gxm::Solver& solver, Tracer& tr,
                       int step) {
  Tracer::Scope st(&tr, "step", "gxm.step", step);
  auto cat = [](const gxm::Node* n, const char* pass) {
    return "gxm." + n->type() + "." + pass;
  };
  for (const gxm::Task& t : g.fwd_schedule()) {
    Tracer::Scope s(&tr, t.node->name(), cat(t.node, "fwd"), step);
    if (auto* c = dynamic_cast<gxm::ConvNode*>(t.node)) {
      // ConvNode::forward is exactly this call; the bitwise loss check
      // against Graph::train_step keeps the two in step.
      Tracer::Scope l(&tr, t.node->name(), "ConvLayer::forward", step);
      c->layer()->forward(c->bottoms[0]->act, c->weights(), c->tops[0]->act);
    } else {
      t.node->forward(true);
    }
  }
  for (const gxm::Task& t : g.bwd_schedule()) {
    {
      Tracer::Scope s(&tr, t.node->name(), cat(t.node, "bwd"), step);
      if (auto* c = dynamic_cast<gxm::ConvNode*>(t.node)) {
        Tracer::Scope l(&tr, t.node->name(), "ConvLayer::backward", step);
        c->layer()->backward(c->tops[0]->grad, c->weights(), c->bottoms[0]->grad);
      } else {
        t.node->backward();
      }
    }
    if (t.node->param_count() > 0) {
      // For a Convolution node this is one ConvLayer::update into the
      // node's private dW; the node span stands for that call.
      Tracer::Scope s(&tr, t.node->name(), cat(t.node, "grads"), step);
      t.node->compute_grads();
    }
  }
  for (const gxm::Task& t : g.upd_schedule()) {
    Tracer::Scope s(&tr, t.node->name(), cat(t.node, "apply"), step);
    t.node->apply_update(solver);
  }
}

void traced_infer(gxm::Graph& g, Tracer& tr, int step) {
  Tracer::Scope st(&tr, "infer", "gxm.infer_batch", step);
  for (const gxm::Task& t : g.fwd_schedule()) {
    Tracer::Scope s(&tr, t.node->name(), "gxm." + t.node->type() + ".infer", step);
    if (auto* c = dynamic_cast<gxm::ConvNode*>(t.node)) {
      Tracer::Scope l(&tr, t.node->name(), "ConvLayer::forward", step);
      c->layer()->forward(c->bottoms[0]->act, c->weights(), c->tops[0]->act);
    } else {
      t.node->forward(false);
    }
  }
}

std::map<std::string, double> median_ms_per_step(
    const Tracer& tr, const std::string& cat_prefix, int first_step) {
  std::map<std::string, std::map<int, double>> per;  // cat -> step -> ms
  for (const Span& s : tr.spans())
    if (s.step >= first_step && s.cat.rfind(cat_prefix, 0) == 0)
      per[s.cat][s.step] += s.dur_ms();
  std::map<std::string, double> out;
  for (const auto& [cat, steps] : per) {
    std::vector<double> v;
    for (const auto& [step, ms] : steps) v.push_back(ms);
    out[cat] = median(v);
  }
  return out;
}

double span_coverage(const Tracer& tr, const std::string& step_cat,
                     int first_step) {
  const auto& spans = tr.spans();
  std::map<int, double> covered;
  for (const Span& s : spans)
    if (s.parent >= 0 && spans[static_cast<std::size_t>(s.parent)].cat == step_cat)
      covered[s.parent] += s.dur_ms();
  std::vector<double> share;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].cat == step_cat && spans[i].step >= first_step)
      share.push_back(covered[static_cast<int>(i)] / spans[i].dur_ms());
  return median(share);
}

}  // namespace perfbench
