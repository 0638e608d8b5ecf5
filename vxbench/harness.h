/// \file harness.h
/// \brief The benchmark's own machinery, independent of any workload:
/// percentiles with their sample counts, the seeded open-loop arrival
/// schedule and its due-time accounting, metric naming and JSON output,
/// in-memory spans with per-layer self time, process gauges, input
/// fingerprints and the environment guard.
///
/// Everything here is exercised by selftest.cc.

#ifndef VXBENCH_HARNESS_H_
#define VXBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graphgen/graph.h"
#include "storage/table.h"

namespace vxbench {

/// \name Percentiles
/// Nearest-rank percentiles: the p-th percentile of n samples is the
/// ceil(p/100 * n)-th smallest. The samples *beyond* it are the ones ranked
/// above it; a percentile is reported only when at least
/// kMinSamplesBeyond samples lie beyond it.
/// @{
inline constexpr int kMinSamplesBeyond = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples.
int64_t NearestRank(int64_t n, double p);

/// Samples ranked strictly above percentile `p` among `n`.
int64_t SamplesBeyond(int64_t n, double p);

/// The highest percentile among `ladder` (tried in order, highest first)
/// with at least kMinSamplesBeyond samples beyond it; 0 when none is.
double HighestSupportedPercentile(int64_t n,
                                  const std::vector<double>& ladder = {
                                      99, 95, 90, 75, 50});

struct PercentileValue {
  double p = 0;         ///< the percentile asked for
  double value = 0;     ///< nearest-rank value (0 when there are no samples)
  int64_t samples = 0;  ///< sample count it was taken from
  int64_t beyond = 0;   ///< samples ranked above it
  bool supported() const { return beyond >= kMinSamplesBeyond; }
};

PercentileValue Percentile(std::vector<double> samples, double p);

/// Plain median (nearest rank, p = 50) of a non-empty vector; 0 when empty.
double Median(std::vector<double> samples);
/// @}

/// \name Open-loop arrivals
/// @{

/// Seeded Poisson arrival times (seconds from the schedule's start) at
/// `rate_per_s`, covering [0, duration_s). Same seed, same schedule.
std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    double duration_s);

/// One open-loop request, timed from its due time (when the schedule says
/// it should have been sent), not from when a client got round to sending
/// it: a stall is charged to every request it delays.
struct OpenLoopTiming {
  double due_s = 0;    ///< scheduled send time
  double start_s = 0;  ///< when a client actually called the server
  double end_s = 0;    ///< when the response came back
  double latency_s() const { return end_s - due_s; }
  /// How late the generator was (never negative: a client that is early
  /// sleeps until the due time).
  double lateness_s() const { return start_s > due_s ? start_s - due_s : 0; }
};

/// True when the schedule fell steadily behind: the lateness of the last
/// quarter of requests (by due time) exceeds that of the first quarter by
/// more than `slack_s` at the median — a backlog that grows over the run.
bool BacklogGrows(const std::vector<OpenLoopTiming>& timings, double slack_s);
/// @}

/// \name Metrics
/// @{

/// Metric names are made of letters, digits, '_', '.' and '-', start with a
/// letter or digit and are at most 64 characters long.
bool ValidMetricName(const std::string& name);

struct Metric {
  double value = 0;
  std::string unit;
};

/// Ordered name -> metric map with validating insertion.
class MetricSet {
 public:
  /// Adds or replaces `name`; aborts on an invalid name (a benchmark bug).
  void Set(const std::string& name, double value, const std::string& unit);
  const std::map<std::string, Metric>& all() const { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
/// with every value printed with full precision.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const MetricSet& metrics);
/// @}

/// \name Spans
/// @{
struct Span {
  std::string name;    ///< layer name, e.g. "job" or "vertexica.superstep"
  double start_s = 0;  ///< seconds since the tracer's epoch
  double end_s = 0;
  int parent = -1;     ///< index of the enclosing span, -1 for a root
  int64_t request = -1;  ///< the job / request all spans of it share
};

/// In-memory span store; written out once the run ends.
class Tracer {
 public:
  /// Adds a span and returns its index (the parent handle for children).
  int Add(std::string name, double start_s, double end_s, int parent,
          int64_t request);
  const std::vector<Span>& spans() const { return spans_; }

  /// Adds a span covering every current root span and makes it their
  /// parent; returns its index.
  int Enclose(std::string name);

  /// Self time per layer name: each span's duration minus the part of its
  /// interval its children cover, summed over spans of that name.
  std::map<std::string, double> SelfSeconds() const;

  /// Writes every span as one JSON array to `path`; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};
/// @}

/// \name Process gauges and provenance
/// @{
double PeakRssMb();          ///< VmHWM of this process, in MiB
double ProcessCpuSeconds();  ///< user + system CPU of this process

/// The first set environment variable that changes what the program
/// measures (any VERTEXICA_* knob, VERTEXICA_FAULTS included); "" if none.
std::string ForbiddenEnvironment();

/// V, E and a content hash of a graph or table, printed so two runs can be
/// shown to share inputs.
struct Fingerprint {
  int64_t rows = 0;      ///< vertices (graph) or rows (table)
  int64_t columns = 0;   ///< edges (graph) or columns (table)
  uint64_t hash = 0;
  std::string ToString() const;
};
Fingerprint FingerprintOf(const vertexica::Graph& graph);
Fingerprint FingerprintOf(const vertexica::Table& table);

/// Bitwise equality of two double vectors (NaN-safe, -0 != +0).
bool BitEqual(const std::vector<double>& a, const std::vector<double>& b);
/// @}

}  // namespace vxbench

#endif  // VXBENCH_HARNESS_H_
