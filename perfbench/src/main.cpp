// Benchmark binary driven by perfbench/run.py. One process runs one
// workload; its last stdout line is a JSON object with the process's own
// set-up time, its checked operations and its metrics:
//
//   perfbench --workload <conv_layers|rn50_gxm|rn50_mn_int16> --seed N
//             --seconds S --trace 0|1 [--trace-out PATH] [--setup-only]
//
// --setup-only builds the workload (JIT, planning, dry-runs) in a fresh
// process, prints {"setup_s": ...} and exits: run.py repeats it to take a
// median cold set-up time.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] [--setup-only]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      const unsigned long s = std::strtoul(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty() || s > 0xFFFFFFFFul) usage("bad --seed");
      a.seed = static_cast<unsigned>(s);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0 && a.seconds <= 600))
        usage("bad --seconds");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      a.trace = v == "1";
      have_trace = true;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!have_trace && !a.setup_only) usage("--trace is required");
  return a;
}

void print_json(const Args& a, const Result& r) {
  if (a.setup_only) {
    std::printf("{\"setup_s\": %.17g}\n", r.setup_s);
    return;
  }
  std::printf("{\"setup_s\": %.17g, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              r.setup_s, r.checks.attempted, r.checks.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    // A metric that cannot be measured is a failed run, never a number.
    const double v = std::isfinite(m.value) ? m.value : -1;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    Tracer tracer;
    Tracer* tr = a.trace && !a.setup_only ? &tracer : nullptr;
    Result r;
    {
      Tracer::Scope ws(tr, a.workload, "workload", -1);
      if (a.workload == "conv_layers")
        run_conv_layers(a, r, tr);
      else if (a.workload == "rn50_gxm")
        run_rn50_gxm(a, r, tr);
      else if (a.workload == "rn50_mn_int16")
        run_rn50_mn_int16(a, r, tr);
      else
        usage(("unknown workload " + a.workload).c_str());
    }
    for (const Metric& m : r.metrics)
      r.checks.check(std::isfinite(m.value), "metric " + m.name + " is finite");
    if (tr != nullptr && !a.trace_out.empty()) {
      tr->write_chrome(a.trace_out);
      std::fprintf(stderr, "perfbench: wrote %zu spans to %s\n",
                   tr->spans().size(), a.trace_out.c_str());
    }
    std::fflush(stderr);
    print_json(a, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", a.workload.c_str(),
                 e.what());
    return 1;
  }
  return 0;
}
