// bcclap benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints one detail line (labelled, not gated) and, as the last line of
// standard output, the result object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits non-zero without a result line on any error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "bench.h"

namespace {

using namespace perfbench;

// Host noise floor: a fixed compute-only chunk (no allocation, no
// threads, no library code) repeated for the window; op_p50_s is the
// median chunk time. Its run-to-run spread is the floor under every other
// timing (perfbench/steadiness.py --noise-floor).
Outcome run_noise_floor(const RunOptions& opt) {
  const double setup_s = seconds_since(opt.process_start);
  std::vector<double> chunk_s;
  double acc = static_cast<double>(opt.seed % 7) + 1.0;
  const auto t0 = Clock::now();
  while (chunk_s.empty() || seconds_since(t0) < opt.seconds) {
    const auto t = Clock::now();
    for (int i = 0; i < 20000000; ++i) acc = acc * 1.0000001 + 1e-9;
    chunk_s.push_back(seconds_since(t));
  }
  Outcome out;
  out.attempted = chunk_s.size();
  out.add("setup_s", setup_s, "s");
  out.add("op_p50_s", median(chunk_s), "s");
  out.add_detail("sink", acc, "1");
  return out;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<dense_clique|sparse_expander|lp_flow|service_mix> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + number(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  opt.process_start = Clock::now();
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = val;
      have[0] = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(val, &end, 10);
      if (*end) usage("--seed is not a whole number");
      have[1] = true;
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(val, &end);
      if (*end || !(opt.seconds > 0)) usage("--seconds must be positive");
      have[2] = true;
    } else if (flag == "--trace") {
      if (std::strcmp(val, "0") && std::strcmp(val, "1")) usage("--trace is 0 or 1");
      opt.trace = val[0] == '1';
      have[3] = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  for (bool h : have) {
    if (!h) usage("missing a flag");
  }
  try {
    Outcome out;
    if (opt.workload == "dense_clique") out = run_dense_clique(opt);
    else if (opt.workload == "sparse_expander") out = run_sparse_expander(opt);
    else if (opt.workload == "lp_flow") out = run_lp_flow(opt);
    else if (opt.workload == "service_mix") out = run_service_mix(opt);
    else if (opt.workload == "noise_floor") out = run_noise_floor(opt);
    else usage("unknown workload");
    for (const auto& note : out.notes) std::fprintf(stderr, "check: %s\n", note.c_str());
    std::printf("detail %s\n", metrics_json(out.detail).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
                out.correct ? "true" : "false", out.attempted, out.failed,
                metrics_json(out.metrics).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
