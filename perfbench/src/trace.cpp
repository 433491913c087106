#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {
std::string json_escape(const std::string& s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o;
}
}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int Tracer::open(std::string name, std::string cat, int step) {
  Span s;
  s.name = std::move(name);
  s.cat = std::move(cat);
  s.parent = open_.empty() ? -1 : open_.back();
  s.step = step;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  spans_.back().begin_ns = now_ns();
  return id;
}

void Tracer::close(int id) {
  const std::int64_t t = now_ns();
  if (open_.empty() || open_.back() != id)
    throw std::logic_error("Tracer: spans must close innermost-first");
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::vector<double> Tracer::self_ms() const {
  // Children of one parent run one after another on the recording thread,
  // so the part of a span they cover is the sum of their durations.
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].dur_ms();
  for (const Span& s : spans_)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.dur_ms();
  return self;
}

void Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("Tracer: cannot write " + path);
  const std::vector<double> self = self_ms();
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d, \"step\": %d, "
                 "\"self_us\": %.3f}}",
                 i == 0 ? "" : ",\n", json_escape(s.name).c_str(),
                 json_escape(s.cat).c_str(), 1e-3 * static_cast<double>(s.begin_ns),
                 1e-3 * static_cast<double>(s.end_ns - s.begin_ns), i, s.parent,
                 s.step, 1e3 * self[i]);
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0)
    throw std::runtime_error("Tracer: error closing " + path);
}

}  // namespace perfbench
