// Shared types of the benchmark program: run options, metrics, outcome.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  Clock::time_point process_start;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;  // end-to-end (untraced) or per-layer (traced)
  std::vector<Metric> detail;   // printed on a line of its own, not gated
  std::vector<std::string> notes;  // check failures, printed to stderr
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void add_detail(std::string name, double value, std::string unit) {
    detail.push_back({std::move(name), value, std::move(unit)});
  }
  void mismatch(const std::string& what) {
    correct = false;
    notes.push_back(what);
  }
};

// Median and quantile of a sample (linear interpolation); 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// Worker count of the graph workloads' Runtimes: min(4, the cores this
// process may run on), fixed by the benchmark, never read from the
// environment.
std::size_t bench_workers();

// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

Outcome run_dense_clique(const RunOptions& opt);
Outcome run_sparse_expander(const RunOptions& opt);
Outcome run_lp_flow(const RunOptions& opt);
Outcome run_service_mix(const RunOptions& opt);

}  // namespace perfbench
