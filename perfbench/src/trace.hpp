// In-memory span recorder for traced runs. Spans are recorded from the
// benchmark's own files around calls into the library's public API
// (workload -> step -> node x pass -> ConvLayer call); each carries the step
// id it belongs to and its parent, from which self time is computed. The
// recorder is single-threaded: spans open and close on the driving thread.
// The spans are written as Chrome trace-event JSON when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  std::string name;  ///< e.g. node name, "ConvLayer::forward", "step"
  std::string cat;   ///< grouping key, e.g. "gxm.BatchNorm.fwd"
  std::int64_t begin_ns = 0, end_ns = 0;
  int parent = -1;   ///< index into Tracer::spans(), -1 for a root
  int step = -1;     ///< step (or sweep) id shared by its spans, -1 if none
  double dur_ms() const { return 1e-6 * static_cast<double>(end_ns - begin_ns); }
};

class Tracer {
 public:
  Tracer();

  /// Opens a span as a child of the innermost open one.
  int open(std::string name, std::string cat, int step);
  void close(int id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Per span: its duration minus the union its direct children cover.
  std::vector<double> self_ms() const;
  /// Writes the spans (with self time in args) as Chrome trace JSON.
  void write_chrome(const std::string& path) const;

  /// RAII span; a null tracer makes it a no-op.
  class Scope {
   public:
    Scope(Tracer* t, std::string name, std::string cat, int step)
        : t_(t), id_(t != nullptr ? t->open(std::move(name), std::move(cat), step) : -1) {}
    ~Scope() {
      if (t_ != nullptr) t_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int id_;
  };

 private:
  std::int64_t now_ns() const;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
