/// \file workloads.h
/// \brief The three benchmark workloads and the metric catalogue they
/// report. Each workload generates its own inputs from the seed, times its
/// set-up, discards warm-up jobs, measures for the requested seconds,
/// checks every answer against an oracle and fills the end-to-end (untraced
/// run) or per-layer (traced run) metrics.

#ifndef VXBENCH_WORKLOADS_H_
#define VXBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace vxbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Requests per second for serve-mix; 0 keeps the gated default. Only the
  /// one-off rate sweep sets it.
  double rate = 0;
  /// Corrupts one measured answer before it is checked (self-test hook).
  bool inject_wrong_answer = false;
  /// Where the traced run writes its spans.
  std::string trace_dir = ".";
  /// Provenance stamped on the output.
  std::string commit = "unknown";
  std::string source_hash = "unknown";
};

struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  MetricSet metrics;  ///< end-to-end (untraced) or per-layer (traced)
};

/// Name, unit and direction of one reported metric.
struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;  ///< "lower" or "higher"
};

const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();
const std::vector<std::string>& WorkloadNames();

/// Runs one workload in this process. Prints human-readable lines (inputs,
/// provenance, every metric with unit and sample count) as it goes.
Outcome RunWorkload(const Options& options);

}  // namespace vxbench

#endif  // VXBENCH_WORKLOADS_H_
