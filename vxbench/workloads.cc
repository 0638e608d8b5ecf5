#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "algorithms/reference.h"
#include "api/engine.h"
#include "exec/parallel.h"
#include "graphgen/generators.h"
#include "graphgen/metadata.h"
#include "pipeline/dataflow.h"
#include "pipeline/nodes.h"
#include "server/engine_server.h"

namespace vxbench {

using vertexica::Engine;
using vertexica::EngineServer;
using vertexica::Graph;
using vertexica::RunRequest;
using vertexica::RunResult;
using vertexica::RunStats;
using vertexica::Table;

// ---- metric catalogue ------------------------------------------------------

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "pagerank-social", "serve-mix", "hybrid-pipeline"};
  return names;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
      {"cpu_s_per_job", "s", "lower"},
      {"vx_p50_ms", "ms", "lower"},
      {"vx_p75_ms", "ms", "lower"},
      {"sql_p50_ms", "ms", "lower"},
      {"sql_p75_ms", "ms", "lower"},
      {"all_p95_ms", "ms", "lower"},
  };
  return specs;
}

namespace {

/// Layers whose self time the traced run reports (span names).
const std::vector<std::string>& SpanLayers() {
  static const std::vector<std::string> layers = {
      "workload",          "job",
      "client.lag",        "server.queue",
      "server.run",        "vertexica.run",
      "sqlgraph.run",      "vertexica.superstep",
      "vertexica.input",   "vertexica.worker",
      "vertexica.split",   "vertexica.apply",
      "pipeline.node"};
  return layers;
}

/// Pipeline nodes of hybrid-pipeline, in DAG order.
const std::vector<std::string>& PipelineNodes() {
  static const std::vector<std::string> nodes = {
      "edges", "recent", "project", "pagerank", "metadata", "join", "group"};
  return nodes;
}

}  // namespace

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"client.start_lag_p95_ms", "ms", "lower"},
        {"client.latency_p50_ms", "ms", "lower"},
        {"client.latency_p95_ms", "ms", "lower"},
        {"client.p50_ms.vertexica.sssp", "ms", "lower"},
        {"client.p50_ms.sqlgraph.sssp", "ms", "lower"},
        {"client.p50_ms.vertexica.cc", "ms", "lower"},
        {"client.p50_ms.sqlgraph.cc", "ms", "lower"},
        {"client.p50_ms.vertexica.pagerank_wide", "ms", "lower"},
        {"server.queue_p50_ms", "ms", "lower"},
        {"server.queue_p95_ms", "ms", "lower"},
        {"server.queued", "count", "lower"},
        {"server.clamped", "count", "lower"},
        {"server.max_in_use_threads", "count", "higher"},
        {"server.run_p50_ms", "ms", "lower"},
        {"server.admitted", "count", "higher"},
        {"server.shed", "count", "lower"},
        {"server.retries", "count", "lower"},
        {"server.update_ms", "ms", "lower"},
        {"server.cold_p50_ms", "ms", "lower"},
        {"api.prepare_s.vertexica", "s", "lower"},
        {"api.prepare_s.sqlgraph", "s", "lower"},
        {"api.run_overhead_s", "s", "lower"},
        {"vertexica.superstep_s", "s", "lower"},
        {"vertexica.input_s", "s", "lower"},
        {"vertexica.worker_s", "s", "lower"},
        {"vertexica.split_s", "s", "lower"},
        {"vertexica.apply_s", "s", "lower"},
        {"vertexica.ms_per_superstep", "ms", "lower"},
        {"vertexica.supersteps", "count", "lower"},
        {"vertexica.frontier_supersteps", "count", "higher"},
        {"vertexica.dense_supersteps", "count", "lower"},
        {"vertexica.input_rows", "count", "lower"},
        {"vertexica.messages_sent", "count", "lower"},
        {"vertexica.active_vertices", "count", "lower"},
        {"vertexica.frontier_vertices", "count", "lower"},
        {"vertexica.vertex_updates", "count", "lower"},
        {"vertexica.replace_supersteps", "count", "lower"},
        {"vertexica.stored_bytes", "bytes", "lower"},
        {"vertexica.decoded_bytes", "bytes", "lower"},
    };
    auto add = [&s](std::string name, const char* unit, const char* better) {
      s.push_back({std::move(name), unit, better});
    };
    for (const std::string backend : {"vertexica", "sqlgraph"}) {
      const std::string p = "exec." + backend + ".";
      add(p + "bytes_materialized", "bytes", "lower");
      add(p + "fused_batches", "count", "higher");
      add(p + "legacy_batches", "count", "lower");
      add(p + "fused_ratio", "ratio", "higher");
      add(p + "batch_hash_rows", "count", "lower");
      add(p + "hash_joins", "count", "lower");
      add(p + "merge_joins", "count", "higher");
      if (backend == "vertexica") {
        add(p + "join_rows", "count", "lower");
        add(p + "join_s", "s", "lower");
      }
    }
    for (const std::string& node : PipelineNodes()) {
      if (node == "pagerank") {
        add("pipeline.node_s.pagerank_vx", "s", "lower");
        add("pipeline.node_s.pagerank_sql", "s", "lower");
      } else {
        add("pipeline.node_s." + node, "s", "lower");
      }
      add("pipeline.rows." + node, "count", "lower");
    }
    add("trace.overhead_ms.vx", "ms", "lower");
    add("trace.overhead_ms.sql", "ms", "lower");
    add("trace.spans", "count", "lower");
    add("trace.layer_gap", "ratio", "lower");
    for (const std::string& layer : SpanLayers()) {
      add("self_ms." + layer, "ms", "lower");
    }
    return s;
  }();
  return specs;
}

namespace {

// ---- small utilities -------------------------------------------------------

constexpr double kDamping = 0.85;
/// PageRank agreement with PageRankReference, as tests/api_test.cc checks.
constexpr double kPageRankTolerance = 1e-6;
/// hybrid-pipeline: relative agreement of avg(rank) per group with the
/// plain-C++ recomputation (the engines sum in another order).
constexpr double kPipelineRelTolerance = 1e-9;
/// Warm-up: per class, at least this many jobs are discarded, and more
/// until a job is within kWarmSettle of the fastest so far (at most
/// kWarmMax).
constexpr int kWarmMin = 2;
constexpr int kWarmMax = 8;
constexpr double kWarmSettle = 1.15;
/// Set-up is repeated at least kSetupMinReps times and for at least
/// kSetupBeforeSeconds before the measured window, and for at least
/// kSetupAfterSeconds after it (at most kSetupMaxReps in all); setup_s is
/// the median of all repetitions. The host's speed shifts between modes
/// ~40% apart every second or two, so one short burst of repetitions would
/// report whichever mode it happened to land in.
constexpr int kSetupMinReps = 7;
constexpr int kSetupMaxReps = 1000;
constexpr double kSetupBeforeSeconds = 1.0;
constexpr double kSetupAfterSeconds = 3.0;

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

double Now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

void SleepUntil(double t) {
  const double d = t - Now();
  if (d > 0) std::this_thread::sleep_for(std::chrono::duration<double>(d));
}

/// Per-layer samples keyed by metric name; reported as medians.
class Samples {
 public:
  void Add(const std::string& name, double v) { values_[name].push_back(v); }
  const std::vector<double>& Get(const std::string& name) const {
    static const std::vector<double> empty;
    auto it = values_.find(name);
    return it == values_.end() ? empty : it->second;
  }

 private:
  std::map<std::string, std::vector<double>> values_;
};

bool NearAll(const std::vector<double>& got, const std::vector<double>& want,
             double tolerance) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(std::fabs(got[i] - want[i]) <= tolerance)) return false;
  }
  return true;
}

/// Everything one workload run accumulates.
struct Run {
  explicit Run(const Options& o) : opt(o), threads(Nproc()) {
    corrupt_pending = o.inject_wrong_answer;
  }

  const Options& opt;
  const int threads;
  Outcome out;
  Samples layers;  ///< per-layer samples (all jobs)
  Tracer tracer;
  bool tracing = false;  ///< spans are recorded only while true
  int64_t next_request = 0;
  bool corrupt_pending = false;
  int64_t traced_jobs = 0;
  std::vector<std::string> expected_layers;
  std::map<std::string, std::vector<double>> first_answers;

  bool measuring = false;  ///< inside the measured window

  /// Hands out the corruption once, to the first measured answer.
  bool TakeCorruption() {
    const bool c = corrupt_pending && measuring;
    if (c) corrupt_pending = false;
    return c;
  }

  /// Records one checked answer (or traced-run check).
  void Tally(bool ok, const std::string& what) {
    ++out.attempted;
    if (!ok) {
      ++out.failed;
      out.correct = false;
      std::printf("vxbench: FAILED: %s\n", what.c_str());
    }
  }

  /// Bit-equality of an answer across repeats of the same job key.
  bool SameAsFirst(const std::string& key, const std::vector<double>& v) {
    auto it = first_answers.find(key);
    if (it == first_answers.end()) {
      first_answers.emplace(key, v);
      return true;
    }
    return BitEqual(it->second, v);
  }

  void Emit(const std::string& name, double value, const std::string& unit,
            int64_t samples) {
    out.metrics.Set(name, value, unit);
    std::printf("  %-34s %16.6f %-6s n=%" PRId64 "\n", name.c_str(), value,
                unit.c_str(), samples);
  }
};

void PrintFingerprint(const char* what, const Fingerprint& f) {
  std::printf("vxbench: input %-22s %s\n", what, f.ToString().c_str());
}

// ---- per-layer recording ---------------------------------------------------

void RecordExec(Run& run, const RunResult& r) {
  const std::string p = "exec." + r.backend + ".";
  auto metric = [&](const char* key) {
    auto it = r.backend_metrics.find(key);
    return it == r.backend_metrics.end() ? 0.0 : it->second;
  };
  for (const char* key : {"bytes_materialized", "fused_batches",
                          "legacy_batches", "batch_hash_rows", "hash_joins",
                          "merge_joins"}) {
    run.layers.Add(p + key, metric(key));
  }
  const double attempted = metric("fused_batches") + metric("legacy_batches");
  run.layers.Add(p + "fused_ratio",
                 attempted > 0 ? metric("fused_batches") / attempted : 0.0);
}

void RecordVertexica(Run& run, const RunResult& r, double wall_s) {
  const RunStats& st = r.stats;
  double superstep = 0, input = 0, worker = 0, split = 0, apply = 0, join_s = 0;
  double rows = 0, msgs = 0, active = 0, frontier = 0, updates = 0,
         replace = 0, join_rows = 0, stored = 0, decoded = 0;
  for (const auto& ss : st.supersteps) {
    superstep += ss.seconds;
    input += ss.input_seconds;
    worker += ss.worker_seconds;
    split += ss.split_seconds;
    apply += ss.apply_seconds;
    join_s += ss.join_seconds;
    rows += static_cast<double>(ss.input_rows);
    msgs += static_cast<double>(ss.messages_sent);
    active += static_cast<double>(ss.active_vertices);
    frontier += static_cast<double>(ss.frontier_vertices);
    updates += static_cast<double>(ss.vertex_updates);
    replace += ss.used_replace ? 1 : 0;
    join_rows += static_cast<double>(ss.join_rows);
    stored = std::max(stored, static_cast<double>(ss.encoded_bytes));
    decoded = std::max(decoded, static_cast<double>(ss.decoded_bytes));
  }
  const int n = st.num_supersteps();
  Samples& L = run.layers;
  L.Add("api.run_overhead_s", wall_s - st.total_seconds);
  L.Add("vertexica.superstep_s", superstep);
  L.Add("vertexica.input_s", input);
  L.Add("vertexica.worker_s", worker);
  L.Add("vertexica.split_s", split);
  L.Add("vertexica.apply_s", apply);
  L.Add("vertexica.ms_per_superstep", n > 0 ? superstep * 1e3 / n : 0.0);
  L.Add("vertexica.supersteps", n);
  L.Add("vertexica.frontier_supersteps",
        static_cast<double>(st.frontier_supersteps));
  L.Add("vertexica.dense_supersteps", static_cast<double>(st.dense_supersteps));
  L.Add("vertexica.input_rows", rows);
  L.Add("vertexica.messages_sent", msgs);
  L.Add("vertexica.active_vertices", active);
  L.Add("vertexica.frontier_vertices", frontier);
  L.Add("vertexica.vertex_updates", updates);
  L.Add("vertexica.replace_supersteps", replace);
  L.Add("vertexica.stored_bytes", stored);
  L.Add("vertexica.decoded_bytes", decoded);
  L.Add("exec.vertexica.join_rows", join_rows);
  L.Add("exec.vertexica.join_s", join_s);
  // The traced-run check: api overhead plus the four phase rows must add
  // back to the job span.
  L.Add("check.layer_sum", (wall_s - st.total_seconds) + input + worker +
                               split + apply);
  L.Add("check.job_wall", wall_s);
}

void RecordResult(Run& run, const RunResult& r, double wall_s) {
  RecordExec(run, r);
  if (r.backend == vertexica::kVertexicaBackendId) {
    RecordVertexica(run, r, wall_s);
  }
}

/// Lays a backend run's spans under `parent`, starting at `start`: the
/// backend's own run span (RunStats::total_seconds) and, for vertexica,
/// each superstep with its four phases back to back.
void AddRunSpans(Run& run, int parent, double start, const RunResult& r,
                 int64_t request) {
  const RunStats& st = r.stats;
  const bool vx = r.backend == vertexica::kVertexicaBackendId;
  const int run_span = run.tracer.Add(vx ? "vertexica.run" : "sqlgraph.run",
                                      start, start + st.total_seconds, parent,
                                      request);
  if (!vx) return;
  double t = start;
  for (const auto& ss : st.supersteps) {
    const int s =
        run.tracer.Add("vertexica.superstep", t, t + ss.seconds, run_span,
                       request);
    double p = t;
    const std::pair<const char*, double> phases[] = {
        {"vertexica.input", ss.input_seconds},
        {"vertexica.worker", ss.worker_seconds},
        {"vertexica.split", ss.split_seconds},
        {"vertexica.apply", ss.apply_seconds}};
    for (const auto& [name, secs] : phases) {
      run.tracer.Add(name, p, p + secs, s, request);
      p += secs;
    }
    t += ss.seconds;
  }
}

// ---- closed loop -----------------------------------------------------------

/// One class of closed-loop jobs ("vx" or "sql" — the metric prefix).
struct JobClass {
  std::string prefix;
  /// Runs job `index`, checks its answer (Run::Tally) and, while tracing,
  /// adds its spans. Returns the job's wall seconds.
  std::function<double(int64_t index)> job;
};

struct ClassTimes {
  std::vector<double> untraced;
  std::vector<double> traced;
};

/// Warm-up, then back-to-back jobs alternating over `classes` for the
/// measured window. In a traced run the first half of the window is
/// untraced and the second half traced.
std::vector<ClassTimes> ClosedLoop(Run& run, std::vector<JobClass>& classes,
                                   double* cpu_s_per_job,
                                   int64_t* untraced_jobs) {
  std::vector<ClassTimes> times(classes.size());
  int discarded = 0;
  for (auto& cls : classes) {
    double best = 1e300;
    for (int i = 0; i < kWarmMax; ++i) {
      const double t = cls.job(-1 - i);
      ++discarded;
      const bool settled = i + 1 >= kWarmMin && t <= kWarmSettle * best;
      best = std::min(best, t);
      if (settled) break;
    }
  }
  std::printf("vxbench: warm-up discarded %d jobs (>= %d per class, until "
              "within %.0f%% of the fastest)\n",
              discarded, kWarmMin, (kWarmSettle - 1) * 100);

  run.measuring = true;
  const double start = Now();
  const double end = start + run.opt.seconds;
  const double switch_at = run.opt.trace ? start + run.opt.seconds / 2 : end;
  const double cpu0 = ProcessCpuSeconds();
  double cpu_untraced = 0;
  int64_t jobs_untraced = 0;
  bool switched = false;
  for (int64_t i = 0;; ++i) {
    const double now = Now();
    if (now >= end) break;
    if (!switched && now >= switch_at) {
      switched = true;
      cpu_untraced = ProcessCpuSeconds() - cpu0;
      run.tracing = true;
    }
    const size_t c = static_cast<size_t>(i) % classes.size();
    const double t = classes[c].job(i);
    if (run.tracing) {
      times[c].traced.push_back(t);
      ++run.traced_jobs;
    } else {
      times[c].untraced.push_back(t);
      ++jobs_untraced;
    }
  }
  if (!switched) cpu_untraced = ProcessCpuSeconds() - cpu0;
  run.tracing = false;
  run.measuring = false;
  *cpu_s_per_job =
      jobs_untraced > 0 ? cpu_untraced / static_cast<double>(jobs_untraced)
                        : 0;
  *untraced_jobs = jobs_untraced;
  return times;
}

/// One engine call as a job sees it: when it started, how long
/// Engine::Run took (the answer check is not timed) and its result.
struct EngineCall {
  double start = 0;
  double wall = 0;
  bool ran = false;
  RunResult result;
};

/// Runs `fn(&call)` and, while tracing, records the call as a "job" span
/// with the result's backend spans below it. Returns the call's wall time.
template <typename Fn>
double TimedJob(Run& run, const Fn& fn) {
  const int64_t request = run.next_request++;
  EngineCall call;
  fn(&call);
  if (run.tracing) {
    const int job = run.tracer.Add("job", call.start, call.start + call.wall,
                                   -1, request);
    if (call.ran) AddRunSpans(run, job, call.start, call.result, request);
  }
  return call.wall;
}

// ---- set-up timing ---------------------------------------------------------

/// Times set-up on fresh objects (see kSetupMinReps). The constructor
/// repeats it before the measured window, the last repetition keeping its
/// objects for the window; Finish repeats it after the window and returns
/// the median of all repetitions.
class SetupTimer {
 public:
  explicit SetupTimer(std::function<void(bool keep)> setup)
      : setup_(std::move(setup)) {
    Repeat(kSetupMinReps, kSetupBeforeSeconds, /*keep_last=*/true);
  }

  /// Call after reading peak RSS: these repetitions allocate beside the
  /// kept objects.
  double Finish() {
    Repeat(1, kSetupAfterSeconds, /*keep_last=*/false);
    const double median = Median(totals_);
    std::printf("vxbench: set-up repeated %zu times, median %.6f s\n",
                totals_.size(), median);
    return median;
  }
  int64_t reps() const { return static_cast<int64_t>(totals_.size()); }

 private:
  void Repeat(int min_reps, double min_seconds, bool keep_last) {
    const double begin = Now();
    bool last = false;
    for (int n = 1; !last; ++n) {
      last = totals_.size() + 1 >= static_cast<size_t>(kSetupMaxReps) ||
             (n >= min_reps && Now() - begin >= min_seconds);
      const double t0 = Now();
      setup_(keep_last && last);
      totals_.push_back(Now() - t0);
    }
  }

  std::function<void(bool keep)> setup_;
  std::vector<double> totals_;
};

/// Times Engine::LoadGraph plus PrepareBackend for both relational backends
/// on a fresh engine.
void LoadAndPrepare(Run& run, Engine* engine,
                    std::shared_ptr<const Graph> graph) {
  VX_CHECK_OK(engine->LoadGraph(std::move(graph)));
  const double t1 = Now();
  VX_CHECK_OK(engine->PrepareBackend(vertexica::kVertexicaBackendId));
  const double t2 = Now();
  VX_CHECK_OK(engine->PrepareBackend(vertexica::kSqlGraphBackendId));
  const double t3 = Now();
  run.layers.Add("api.prepare_s.vertexica", t2 - t1);
  run.layers.Add("api.prepare_s.sqlgraph", t3 - t2);
}

// ---- reporting -------------------------------------------------------------

void EmitLatency(Run& run, const std::string& prefix,
                 const std::vector<double>& seconds) {
  std::vector<double> ms;
  for (double s : seconds) ms.push_back(s * 1e3);
  const PercentileValue p50 = Percentile(ms, 50);
  const PercentileValue p75 = Percentile(ms, 75);
  run.Emit(prefix + "_p50_ms", p50.value, "ms", p50.samples);
  run.Emit(prefix + "_p75_ms", p75.value, "ms", p75.samples);
  if (!p75.supported()) {
    std::printf("vxbench: note: %s_p75_ms has only %" PRId64
                " samples beyond it (< %d); the highest supported "
                "percentile is p%.0f\n",
                prefix.c_str(), p75.beyond, kMinSamplesBeyond,
                HighestSupportedPercentile(p75.samples));
  }
}

/// all_p95_ms: the p95 of every measured job or request, whatever its
/// class or kind.
void EmitTail(Run& run, const std::vector<double>& seconds) {
  std::vector<double> ms;
  for (double s : seconds) ms.push_back(s * 1e3);
  const PercentileValue p95 = Percentile(ms, 95);
  run.Emit("all_p95_ms", p95.value, "ms", p95.samples);
  if (!p95.supported()) {
    std::printf("vxbench: note: all_p95_ms has only %" PRId64
                " samples beyond it (< %d)\n",
                p95.beyond, kMinSamplesBeyond);
  }
}

/// error_rate is failed / attempted: 0 on a correct program, so it rides in
/// the result line's failed and attempted keys rather than as a metric.
void PrintErrorRate(const Run& run) {
  std::printf("vxbench: error_rate = %.6f (%" PRId64 " failed of %" PRId64
              " attempted)\n",
              run.out.attempted > 0 ? static_cast<double>(run.out.failed) /
                                          static_cast<double>(run.out.attempted)
                                    : 0.0,
              run.out.failed, run.out.attempted);
}

/// The end-to-end block common to every workload.
void EmitEndToEnd(Run& run, SetupTimer& setup, double cpu_s_per_job,
                  int64_t jobs, const std::vector<ClassTimes>& vx_sql_times) {
  const double peak_rss_mb = PeakRssMb();
  const double setup_s = setup.Finish();
  std::printf("vxbench: end-to-end metrics\n");
  run.Emit("setup_s", setup_s, "s", setup.reps());
  run.Emit("peak_rss_mb", peak_rss_mb, "MB", 1);
  run.Emit("cpu_s_per_job", cpu_s_per_job, "s", jobs);
  EmitLatency(run, "vx", vx_sql_times[0].untraced);
  EmitLatency(run, "sql", vx_sql_times[1].untraced);
  std::vector<double> all;
  for (const ClassTimes& c : vx_sql_times) {
    all.insert(all.end(), c.untraced.begin(), c.untraced.end());
  }
  EmitTail(run, all);
  PrintErrorRate(run);
}

/// The per-layer block: medians of the samples, self times from spans, the
/// traced-run checks. Metrics a workload does not exercise report 0.
void EmitPerLayer(Run& run, const std::vector<ClassTimes>& times,
                  bool check_layer_sum) {
  std::printf("vxbench: per-layer metrics (traced run)\n");
  std::set<std::string> set_names;
  auto emit = [&](const std::string& name, double v, const std::string& unit,
                  int64_t n) {
    run.Emit(name, v, unit, n);
    set_names.insert(name);
  };
  for (const MetricSpec& spec : PerLayerMetrics()) {
    const std::vector<double>& v = run.layers.Get(spec.name);
    if (!v.empty()) {
      emit(spec.name, Median(v), spec.unit, static_cast<int64_t>(v.size()));
    }
  }
  // Tracing overhead: traced median minus untraced median, per class.
  const char* names[] = {"trace.overhead_ms.vx", "trace.overhead_ms.sql"};
  for (size_t c = 0; c < times.size() && c < 2; ++c) {
    if (times[c].traced.empty() || times[c].untraced.empty()) continue;
    emit(names[c],
         (Median(times[c].traced) - Median(times[c].untraced)) * 1e3, "ms",
         static_cast<int64_t>(times[c].traced.size()));
  }
  emit("trace.spans", static_cast<double>(run.tracer.spans().size()), "count",
       1);

  // Self time per layer, averaged per traced job; a layer the workload
  // should show that is missing or negative is an error.
  const std::map<std::string, double> self = run.tracer.SelfSeconds();
  const double jobs = std::max<int64_t>(1, run.traced_jobs);
  // Timer rounding allowance: a microsecond per span.
  const double slack = 1e-6 * static_cast<double>(run.tracer.spans().size());
  for (const std::string& layer : run.expected_layers) {
    auto it = self.find(layer);
    if (it == self.end()) {
      run.Tally(false, "trace: layer " + layer + " has no spans");
    } else if (it->second < -slack) {
      run.Tally(false, "trace: layer " + layer + " has negative self time " +
                           std::to_string(it->second) + " s");
    }
  }
  for (const auto& [layer, secs] : self) {
    emit("self_ms." + layer, secs * 1e3 / jobs, "ms", run.traced_jobs);
  }

  const std::vector<double>& sums = run.layers.Get("check.layer_sum");
  const std::vector<double>& walls = run.layers.Get("check.job_wall");
  if (!walls.empty()) {
    double sum = 0, wall = 0;
    for (size_t i = 0; i < walls.size(); ++i) {
      sum += sums[i];
      wall += walls[i];
    }
    const double gap = std::fabs(wall - sum) / wall;
    emit("trace.layer_gap", gap, "ratio", static_cast<int64_t>(walls.size()));
    if (check_layer_sum && gap > 0.05) {
      run.Tally(false, "trace: api.run_overhead_s plus the four phase rows "
                       "miss the job spans by " +
                           std::to_string(gap * 100) + "% (> 5%)");
    }
  }
  for (const MetricSpec& spec : PerLayerMetrics()) {
    if (!set_names.count(spec.name)) {
      run.out.metrics.Set(spec.name, 0, spec.unit);
    }
  }
  const std::string path = run.opt.trace_dir + "/vxbench-" + run.opt.workload +
                           "-" + std::to_string(run.opt.seed) + ".spans.json";
  if (run.tracer.WriteJson(path)) {
    std::printf("vxbench: %zu spans written to %s\n",
                run.tracer.spans().size(), path.c_str());
  } else {
    std::printf("vxbench: could not write spans to %s\n", path.c_str());
  }
}

/// Finishes a closed-loop workload: workload span, then the metric block.
void FinishClosedLoop(Run& run, SetupTimer& setup, double cpu_s_per_job,
                      int64_t jobs, const std::vector<ClassTimes>& times,
                      bool check_layer_sum) {
  std::printf("vxbench: measured jobs: vx %zu+%zu, sql %zu+%zu "
              "(untraced+traced)\n",
              times[0].untraced.size(), times[0].traced.size(),
              times[1].untraced.size(), times[1].traced.size());
  if (run.opt.trace) {
    // The workload span encloses every traced job; its self time is the
    // harness's own time between jobs (answer checks included).
    run.tracer.Enclose("workload");
    EmitPerLayer(run, times, check_layer_sum);
  } else {
    EmitEndToEnd(run, setup, cpu_s_per_job, jobs, times);
  }
}

// ---- pagerank-social -------------------------------------------------------

/// LiveJournal's dimensions (4,847,571 V; 68,993,773 E) scaled by 0.001.
constexpr int64_t kSocialVertices = 4848;
constexpr int64_t kSocialEdges = 68994;
constexpr int kSocialIterations = 10;

void PageRankSocial(Run& run) {
  const uint64_t seed = run.opt.seed;
  auto graph = std::make_shared<const Graph>(
      vertexica::GenerateRmat(kSocialVertices, kSocialEdges, seed * 1000 + 1));
  PrintFingerprint("social graph", FingerprintOf(*graph));
  const std::vector<double> oracle =
      vertexica::PageRankReference(*graph, kSocialIterations, kDamping);

  std::unique_ptr<Engine> engine;
  SetupTimer setup([&](bool keep) {
    auto e = std::make_unique<Engine>();
    LoadAndPrepare(run, e.get(), graph);
    if (keep) engine = std::move(e);
  });

  auto make_class = [&](const char* prefix, const char* backend) {
    return JobClass{prefix, [&run, &engine, &oracle, backend](int64_t) {
                      return TimedJob(run, [&](EngineCall* call) {
                        RunRequest r;
                        r.algorithm = vertexica::kPageRank;
                        r.backend = backend;
                        r.threads = run.threads;
                        r.iterations = kSocialIterations;
                        r.damping = kDamping;
                        call->start = Now();
                        auto res = engine->Run(r);
                        call->wall = Now() - call->start;
                        if (!res.ok()) {
                          run.Tally(false, std::string(backend) + " pagerank: " +
                                               res.status().ToString());
                          return;
                        }
                        std::vector<double> v = res->values;
                        if (run.TakeCorruption()) v[0] += 1e-3;
                        run.Tally(NearAll(v, oracle, kPageRankTolerance) &&
                                      run.SameAsFirst(backend, v),
                                  std::string(backend) + " pagerank");
                        RecordResult(run, *res, call->wall);
                        call->ran = true;
                        call->result = std::move(*res);
                      });
                    }};
  };
  std::vector<JobClass> classes = {
      make_class("vx", vertexica::kVertexicaBackendId),
      make_class("sql", vertexica::kSqlGraphBackendId)};
  double cpu = 0;
  int64_t jobs = 0;
  auto times = ClosedLoop(run, classes, &cpu, &jobs);
  run.expected_layers = {"workload",        "job",
                         "vertexica.run",   "sqlgraph.run",
                         "vertexica.superstep", "vertexica.input",
                         "vertexica.worker", "vertexica.split",
                         "vertexica.apply"};
  FinishClosedLoop(run, setup, cpu, jobs, times,
                   /*check_layer_sum=*/true);
}

// ---- hybrid-pipeline -------------------------------------------------------

constexpr int kPipelineIterations = 5;
constexpr int64_t kNow = 1700000000;  // GenerateEdgeMetadata's clock
constexpr int64_t kTwoYears = 2LL * 365 * 24 * 3600;

/// Forwards to a node and records its output row count.
class TapNode : public vertexica::PipelineNode {
 public:
  TapNode(std::string name, vertexica::PipelineNodePtr inner)
      : name_(std::move(name)), inner_(std::move(inner)) {}
  std::string name() const override { return name_; }
  vertexica::Result<Table> Run(const std::vector<Table>& inputs) override {
    auto out = inner_->Run(inputs);
    if (out.ok()) rows_.store(out->num_rows(), std::memory_order_relaxed);
    return out;
  }
  int64_t rows() const { return rows_.load(std::memory_order_relaxed); }

 private:
  std::string name_;
  vertexica::PipelineNodePtr inner_;
  std::atomic<int64_t> rows_{0};
};

/// The §3.4 pipeline with either PageRank stage.
struct HybridPipeline {
  vertexica::Pipeline pipeline;
  std::vector<std::shared_ptr<TapNode>> taps;
  int target = -1;
  /// vx class: the PageRank stage's last Engine::Run (wall and result).
  std::shared_ptr<EngineCall> call;

  int Tap(const std::string& name, vertexica::PipelineNodePtr node,
          std::vector<int> inputs) {
    auto t = std::make_shared<TapNode>(name, std::move(node));
    taps.push_back(t);
    return pipeline.AddNode(t, std::move(inputs));
  }
};

/// The graph of the edges created in the last two years, endpoints
/// compacted to dense ids in ascending order (as the SQL node's
/// VertexListOf numbers them); ids[v] is dense vertex v's original id.
struct RecentGraph {
  std::shared_ptr<const Graph> graph;
  std::shared_ptr<const std::vector<int64_t>> ids;
};

RecentGraph RecentEdgesGraph(const Table& edges) {
  const vertexica::Column* src = edges.ColumnByName("src");
  const vertexica::Column* dst = edges.ColumnByName("dst");
  const vertexica::Column* created = edges.ColumnByName("created");
  std::vector<std::pair<int64_t, int64_t>> kept;
  std::vector<int64_t> ids;
  for (int64_t i = 0; i < edges.num_rows(); ++i) {
    if (created->GetInt64(i) >= kNow - kTwoYears) {
      kept.emplace_back(src->GetInt64(i), dst->GetInt64(i));
      ids.push_back(kept.back().first);
      ids.push_back(kept.back().second);
    }
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  auto dense = [&ids](int64_t id) {
    return static_cast<int64_t>(std::lower_bound(ids.begin(), ids.end(), id) -
                                ids.begin());
  };
  Graph g;
  g.num_vertices = static_cast<int64_t>(ids.size());
  for (const auto& [s, d] : kept) g.AddEdge(dense(s), dense(d));
  return {std::make_shared<const Graph>(std::move(g)),
          std::make_shared<const std::vector<int64_t>>(std::move(ids))};
}

/// Adds the relational tail after the PageRank stage `rank`: node metadata
/// joined on id, then avg(rank) and count grouped by u0.
void AddJoinAndGroup(HybridPipeline* hp, int rank, const Table& metadata) {
  using namespace vertexica;  // node builders
  const int meta = hp->Tap("metadata", MakeSourceNode("metadata", metadata),
                           {});
  const int join = hp->Tap("join", MakeJoinNode({"id"}, {"id"}), {rank, meta});
  hp->target = hp->Tap("group",
                       MakeAggregationNode({"u0"},
                                           {{AggOp::kAvg, "rank", "avg_rank"},
                                            {AggOp::kCountStar, "", "n"}}),
                       {join});
}

/// sql class: the whole §3.4 pipeline in the relational engine — edges ->
/// sigma(recent) -> pi(src, dst) -> SQL PageRank -> join -> group.
std::unique_ptr<HybridPipeline> BuildSqlPipeline(const Table& edges,
                                                 const Table& metadata) {
  using namespace vertexica;  // expression and node builders
  auto hp = std::make_unique<HybridPipeline>();
  const int e = hp->Tap("edges", MakeSourceNode("edges", edges), {});
  const int recent = hp->Tap(
      "recent", MakeSelectionNode(Ge(Col("created"), Lit(kNow - kTwoYears))),
      {e});
  const int proj = hp->Tap("project",
                           MakeProjectionNode({{"src", Col("src")},
                                               {"dst", Col("dst")}}),
                           {recent});
  const int rank = hp->Tap(
      "pagerank", MakePageRankNode(kPipelineIterations, kDamping), {proj});
  AddJoinAndGroup(hp.get(), rank, metadata);
  return hp;
}

/// vx class: the recent-edges graph lives in `engine` (loaded and prepared
/// in set-up); the PageRank stage is a vertexica Engine::Run whose values
/// feed the same relational tail as an (id, rank) table.
std::unique_ptr<HybridPipeline> BuildVertexicaPipeline(
    std::shared_ptr<Engine> engine,
    std::shared_ptr<const std::vector<int64_t>> ids, const Table& metadata,
    int threads) {
  auto hp = std::make_unique<HybridPipeline>();
  hp->call = std::make_shared<EngineCall>();
  auto stage = vertexica::MakeFunctionNode(
      "pagerank",
      [engine, ids, threads, call = hp->call](const std::vector<Table>&)
          -> vertexica::Result<Table> {
        RunRequest r;
        r.algorithm = vertexica::kPageRank;
        r.backend = vertexica::kVertexicaBackendId;
        r.threads = threads;
        r.iterations = kPipelineIterations;
        r.damping = kDamping;
        call->ran = false;
        call->start = Now();
        auto res = engine->Run(r);
        call->wall = Now() - call->start;
        if (!res.ok()) return res.status();
        call->ran = true;
        call->result = std::move(*res);
        return Table::Make(
            vertexica::Schema({{"id", vertexica::DataType::kInt64},
                               {"rank", vertexica::DataType::kDouble}}),
            {vertexica::Column::FromInts(*ids),
             vertexica::Column::FromDoubles(call->result.values)});
      });
  AddJoinAndGroup(hp.get(), hp->Tap("pagerank", std::move(stage), {}),
                  metadata);
  return hp;
}

/// group key u0 -> (avg rank, count)
using GroupAnswer = std::map<int64_t, std::pair<double, int64_t>>;

/// Plain C++: reference PageRank of the recent-edges graph, joined to the
/// node metadata and grouped by u0.
GroupAnswer PipelineOracle(const RecentGraph& recent, const Table& metadata) {
  const std::vector<int64_t>& ids = *recent.ids;
  const std::vector<double> rank = vertexica::PageRankReference(
      *recent.graph, kPipelineIterations, kDamping);
  const vertexica::Column* meta_id = metadata.ColumnByName("id");
  const vertexica::Column* u0 = metadata.ColumnByName("u0");
  std::map<int64_t, int64_t> row_of;
  for (int64_t r = 0; r < metadata.num_rows(); ++r) {
    row_of[meta_id->GetInt64(r)] = r;
  }
  std::map<int64_t, std::pair<double, int64_t>> sums;
  for (size_t v = 0; v < ids.size(); ++v) {
    auto it = row_of.find(ids[v]);
    if (it == row_of.end()) continue;
    auto& [sum, count] = sums[u0->GetInt64(it->second)];
    sum += rank[v];
    ++count;
  }
  GroupAnswer out;
  for (const auto& [key, sc] : sums) {
    out[key] = {sc.first / static_cast<double>(sc.second), sc.second};
  }
  return out;
}

GroupAnswer ReadGroups(const Table& t) {
  GroupAnswer out;
  const vertexica::Column* u0 = t.ColumnByName("u0");
  const vertexica::Column* avg = t.ColumnByName("avg_rank");
  const vertexica::Column* n = t.ColumnByName("n");
  if (u0 == nullptr || avg == nullptr || n == nullptr) return out;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    out[u0->GetInt64(r)] = {avg->GetDouble(r), n->GetInt64(r)};
  }
  return out;
}

bool GroupsNear(const GroupAnswer& got, const GroupAnswer& want) {
  if (got.size() != want.size()) return false;
  for (const auto& [key, v] : want) {
    auto it = got.find(key);
    if (it == got.end() || it->second.second != v.second) return false;
    if (!(std::fabs(it->second.first - v.first) <=
          kPipelineRelTolerance * std::fabs(v.first))) {
      return false;
    }
  }
  return true;
}

void HybridPipelineWorkload(Run& run) {
  const uint64_t seed = run.opt.seed;
  const Graph g = vertexica::GenerateRmat(kSocialVertices, kSocialEdges,
                                          seed * 1000 + 5);
  const Table edges = vertexica::GenerateEdgeMetadata(g, seed * 1000 + 6);
  const Table metadata =
      vertexica::GenerateNodeMetadata(g.num_vertices, seed * 1000 + 7);
  const RecentGraph recent = RecentEdgesGraph(edges);
  PrintFingerprint("pipeline graph", FingerprintOf(g));
  PrintFingerprint("edge metadata", FingerprintOf(edges));
  PrintFingerprint("node metadata", FingerprintOf(metadata));
  PrintFingerprint("recent-edges graph", FingerprintOf(*recent.graph));
  const GroupAnswer oracle = PipelineOracle(recent, metadata);

  // Set-up: Engine::LoadGraph plus PrepareBackend(vertexica) of the
  // recent-edges graph for the vx class, and assembling both pipelines
  // (their sources take the edge and node-metadata tables).
  std::unique_ptr<HybridPipeline> vx_pipe, sql_pipe;
  SetupTimer setup([&](bool keep) {
    auto engine = std::make_shared<Engine>();
    VX_CHECK_OK(engine->LoadGraph(recent.graph));
    const double t1 = Now();
    VX_CHECK_OK(engine->PrepareBackend(vertexica::kVertexicaBackendId));
    run.layers.Add("api.prepare_s.vertexica", Now() - t1);
    auto vx = BuildVertexicaPipeline(engine, recent.ids, metadata,
                                     run.threads);
    auto sql = BuildSqlPipeline(edges, metadata);
    if (keep) {
      vx_pipe = std::move(vx);
      sql_pipe = std::move(sql);
    }
  });

  auto make_class = [&](const char* prefix, HybridPipeline* hp) {
    const std::string label = prefix;
    return JobClass{prefix, [&run, &oracle, hp, label](int64_t) {
                      const int64_t request = run.next_request++;
                      hp->pipeline.Reset();
                      const double t0 = Now();
                      vertexica::Result<Table> out = [&] {
                        vertexica::ScopedExecThreads threads(run.threads);
                        return hp->pipeline.Run(hp->target);
                      }();
                      const double t1 = Now();
                      if (!out.ok()) {
                        run.Tally(false, label + " pipeline: " +
                                             out.status().ToString());
                        return t1 - t0;
                      }
                      GroupAnswer got = ReadGroups(*out);
                      if (run.TakeCorruption() && !got.empty()) {
                        got.begin()->second.first *= 1.5;
                      }
                      std::vector<double> bits;
                      for (const auto& [k, v] : got) {
                        bits.push_back(static_cast<double>(k));
                        bits.push_back(v.first);
                        bits.push_back(static_cast<double>(v.second));
                      }
                      run.Tally(GroupsNear(got, oracle) &&
                                    run.SameAsFirst(label, bits),
                                label + " pipeline groups");
                      const bool engine_ran = hp->call && hp->call->ran;
                      if (engine_ran) {
                        RecordResult(run, hp->call->result, hp->call->wall);
                      }
                      // Per-node rows and seconds.
                      for (const auto& timing : hp->pipeline.timings()) {
                        const std::string node =
                            timing.name == "pagerank"
                                ? "pagerank_" + label
                                : timing.name;
                        run.layers.Add("pipeline.node_s." + node,
                                       timing.seconds);
                      }
                      for (const auto& tap : hp->taps) {
                        run.layers.Add("pipeline.rows." + tap->name(),
                                       static_cast<double>(tap->rows()));
                      }
                      if (run.tracing) {
                        const int job = run.tracer.Add(
                            "job", t0, t1, -1, request);
                        double t = t0;
                        for (const auto& timing : hp->pipeline.timings()) {
                          const int node = run.tracer.Add(
                              "pipeline.node", t, t + timing.seconds, job,
                              request);
                          if (engine_ran && timing.name == "pagerank") {
                            AddRunSpans(run, node, t, hp->call->result,
                                        request);
                          }
                          t += timing.seconds;
                        }
                      }
                      return t1 - t0;
                    }};
  };
  std::vector<JobClass> classes = {make_class("vx", vx_pipe.get()),
                                   make_class("sql", sql_pipe.get())};
  double cpu = 0;
  int64_t jobs = 0;
  auto times = ClosedLoop(run, classes, &cpu, &jobs);
  run.expected_layers = {"workload",      "job",
                         "pipeline.node", "vertexica.run",
                         "vertexica.superstep"};
  FinishClosedLoop(run, setup, cpu, jobs, times,
                   /*check_layer_sum=*/false);
}

// ---- serve-mix -------------------------------------------------------------

/// Twitter's dimensions (81,306 V; 1,768,149 E) scaled by 0.025.
constexpr int64_t kServeVertices = 2033;
constexpr int64_t kServeEdges = 44204;
constexpr int kServeVersions = 3;
constexpr int kServeIterations = 5;
constexpr double kServeUpdateEvery = 2.0;
/// The gated arrival rate: ~70% of the highest rate that met
/// p95 <= 500 ms without a growing backlog in the one-off sweep (see
/// vxbench/design.json).
constexpr double kServeRate = 22.0;
/// The end-to-end latency percentiles are the median of their values in
/// this many equal windows of due time: a host stall of a few hundred ms
/// moves one window's tail, not the reported value. At 22 req/s a 10 s
/// window still has >= 10 requests beyond all_p95_ms and a class p75.
constexpr int kServeWindows = 3;

struct ServeKind {
  const char* backend;
  const char* algorithm;
  bool wide;  ///< threads = nproc instead of 1
};

const ServeKind kServeKinds[] = {
    {vertexica::kVertexicaBackendId, vertexica::kPageRank, false},
    {vertexica::kSqlGraphBackendId, vertexica::kPageRank, false},
    {vertexica::kVertexicaBackendId, vertexica::kSssp, false},
    {vertexica::kSqlGraphBackendId, vertexica::kSssp, false},
    {vertexica::kVertexicaBackendId, vertexica::kConnectedComponents, false},
    {vertexica::kSqlGraphBackendId, vertexica::kConnectedComponents, false},
    {vertexica::kVertexicaBackendId, vertexica::kPageRank, true},
};
constexpr int kNumServeKinds = 7;
/// Request kinds cycle through this fixed order (from a seeded offset), so
/// the mix is the same in every run: of every eleven requests, three are
/// narrow vertexica PageRank and three narrow sqlgraph PageRank (the two
/// measured classes), one each of sssp and connected_components per
/// backend, and one wide vertexica PageRank.
const int kServeCycle[] = {0, 1, 2, 3, 0, 1, 4, 5, 0, 1, 6};
constexpr int kServeCycleLength = 11;
/// The kinds whose latency is reported as the vx and sql classes; the
/// others are traffic they share the server with.
constexpr int kServeVxClassKind = 0;
constexpr int kServeSqlClassKind = 1;
constexpr int kServeVxSsspKind = 2;
/// Per-layer latency medians of the other kinds.
const std::pair<int, const char*> kServeKindMetrics[] = {
    {2, "client.p50_ms.vertexica.sssp"},
    {3, "client.p50_ms.sqlgraph.sssp"},
    {4, "client.p50_ms.vertexica.cc"},
    {5, "client.p50_ms.sqlgraph.cc"},
    {6, "client.p50_ms.vertexica.pagerank_wide"}};

struct ServeRecord {
  OpenLoopTiming timing;
  int kind = 0;
  bool ok = false;
  bool cold = false;
  double queue_s = 0, run_s = 0;
  uint64_t version = 0;
  RunResult result;  ///< values dropped after the check; stats kept
};

void ServeMix(Run& run) {
  const uint64_t seed = run.opt.seed;
  const double rate = run.opt.rate > 0 ? run.opt.rate : kServeRate;
  std::vector<std::shared_ptr<const Graph>> versions;
  // One seeded sssp source for every version (they share V).
  const auto source = static_cast<int64_t>((seed * 7919) % kServeVertices);
  for (int v = 0; v < kServeVersions; ++v) {
    versions.push_back(std::make_shared<const Graph>(vertexica::GenerateRmat(
        kServeVertices, kServeEdges, seed * 1000 + 10 + static_cast<uint64_t>(v))));
    PrintFingerprint(("serve graph v" + std::to_string(v)).c_str(),
                     FingerprintOf(*versions.back()));
  }
  auto make_request = [&](int kind) {
    RunRequest r;
    r.algorithm = kServeKinds[kind].algorithm;
    r.backend = kServeKinds[kind].backend;
    r.threads = kServeKinds[kind].wide ? run.threads : 1;
    r.iterations = kServeIterations;
    r.damping = kDamping;
    r.source = source;
    return r;
  };

  // Serial reference per (graph version, kind) on a separate Engine, each
  // itself checked against the textbook oracles.
  std::vector<std::vector<std::vector<double>>> reference(kServeVersions);
  for (int v = 0; v < kServeVersions; ++v) {
    Engine engine;
    VX_CHECK_OK(engine.LoadGraph(versions[static_cast<size_t>(v)]));
    const Graph& g = *versions[static_cast<size_t>(v)];
    const auto pr = vertexica::PageRankReference(g, kServeIterations, kDamping);
    const auto sp = vertexica::DijkstraReference(g, source);
    const auto cc = vertexica::WccReference(g);
    for (int k = 0; k < kNumServeKinds; ++k) {
      auto res = engine.Run(make_request(k));
      VX_CHECK(res.ok()) << res.status().ToString();
      const std::string algo = kServeKinds[k].algorithm;
      bool ok = false;
      if (algo == vertexica::kPageRank) {
        ok = NearAll(res->values, pr, kPageRankTolerance);
      } else if (algo == vertexica::kSssp) {
        ok = res->values == sp;
      } else {
        std::vector<double> want(cc.begin(), cc.end());
        ok = res->values == want;
      }
      run.Tally(ok, std::string("serial reference ") + kServeKinds[k].backend +
                        "/" + algo + " on graph v" + std::to_string(v));
      reference[static_cast<size_t>(v)].push_back(res->values);
    }
  }

  std::unique_ptr<EngineServer> server;
  SetupTimer setup([&](bool keep) {
    auto s = std::make_unique<EngineServer>();
    VX_CHECK_OK(s->CreateGraph("g", versions[0]));
    const double t1 = Now();
    VX_CHECK_OK(s->PrepareGraph("g", vertexica::kVertexicaBackendId));
    const double t2 = Now();
    VX_CHECK_OK(s->PrepareGraph("g", vertexica::kSqlGraphBackendId));
    const double t3 = Now();
    run.layers.Add("api.prepare_s.vertexica", t2 - t1);
    run.layers.Add("api.prepare_s.sqlgraph", t3 - t2);
    if (keep) server = std::move(s);
  });

  auto check = [&](ServeRecord& rec, vertexica::Result<RunResult>& res) {
    if (!res.ok()) {
      run.Tally(false, std::string("serve ") + kServeKinds[rec.kind].backend +
                           ": " + res.status().ToString());
      return;
    }
    rec.version = static_cast<uint64_t>(
        res->backend_metrics["server_graph_version"]);
    rec.queue_s = res->backend_metrics["server_queue_seconds"];
    rec.run_s = res->backend_metrics["server_run_seconds"];
    const size_t graph = (rec.version - 1) % kServeVersions;
    std::vector<double>& v = res->values;
    if (run.TakeCorruption()) v[0] += 1;
    rec.ok = BitEqual(v, reference[graph][static_cast<size_t>(rec.kind)]);
    run.Tally(rec.ok, std::string("serve ") + kServeKinds[rec.kind].backend +
                          "/" + kServeKinds[rec.kind].algorithm +
                          " vs serial reference (graph v" +
                          std::to_string(graph) + ")");
    v.clear();
    v.shrink_to_fit();
    rec.result = std::move(*res);
  };

  // Warm-up: every kind once, serially, on the installed version.
  for (int k = 0; k < kNumServeKinds; ++k) {
    ServeRecord rec;
    rec.kind = k;
    auto res = server->Run("g", make_request(k));
    check(rec, res);
  }
  std::printf("vxbench: warm-up discarded %d requests (each kind once)\n",
              kNumServeKinds);

  // The open loop: a seeded Poisson schedule served by nproc client
  // threads, each request timed from its due time; a writer installs the
  // next graph version every kServeUpdateEvery seconds.
  const std::vector<double> due = PoissonSchedule(seed, rate, run.opt.seconds);
  const int offset = static_cast<int>(seed % kServeCycleLength);
  std::vector<ServeRecord> records(due.size());
  for (size_t i = 0; i < due.size(); ++i) {
    records[i].kind =
        kServeCycle[(i + static_cast<size_t>(offset)) % kServeCycleLength];
  }
  std::printf("vxbench: serve-mix rate %.2f req/s, %zu requests scheduled, "
              "%d client threads\n",
              rate, due.size(), run.threads);
  run.measuring = true;
  std::mutex check_mutex;
  std::atomic<size_t> next{0};
  std::atomic<bool> stop_writer{false};
  std::vector<double> update_ms;
  uint64_t installed = 1;
  const double t0 = Now();
  const double cpu0 = ProcessCpuSeconds();
  std::thread writer([&] {
    for (int k = 1;; ++k) {
      const double at = t0 + k * kServeUpdateEvery;
      if (at >= t0 + run.opt.seconds) break;
      while (Now() < at && !stop_writer.load()) {
        SleepUntil(std::min(at, Now() + 0.05));
      }
      if (stop_writer.load()) break;
      const double u0 = Now();
      VX_CHECK_OK(server->UpdateGraph(
          "g", versions[static_cast<size_t>(k % kServeVersions)]));
      update_ms.push_back((Now() - u0) * 1e3);
      installed = static_cast<uint64_t>(k) + 1;
    }
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < run.threads; ++c) {
    clients.emplace_back([&] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= due.size()) return;
        ServeRecord& rec = records[i];
        rec.timing.due_s = t0 + due[i];
        SleepUntil(rec.timing.due_s);
        rec.timing.start_s = Now();
        auto res = server->Run("g", make_request(rec.kind));
        rec.timing.end_s = Now();
        std::lock_guard<std::mutex> lock(check_mutex);
        check(rec, res);
      }
    });
  }
  for (auto& c : clients) c.join();
  stop_writer.store(true);
  writer.join();
  const double cpu = ProcessCpuSeconds() - cpu0;
  run.measuring = false;
  std::printf("vxbench: %" PRIu64 " graph versions installed\n", installed);

  // Cold requests: the first per backend after each install.
  {
    std::vector<size_t> order(records.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return records[a].timing.start_s < records[b].timing.start_s;
    });
    std::map<std::string, uint64_t> seen = {
        {vertexica::kVertexicaBackendId, 1}, {vertexica::kSqlGraphBackendId, 1}};
    for (size_t i : order) {
      ServeRecord& rec = records[i];
      if (!rec.ok) continue;
      uint64_t& last = seen[kServeKinds[rec.kind].backend];
      if (rec.version > last) {
        rec.cold = true;
        last = rec.version;
      }
    }
  }

  // Latencies in ms per window of due time: all requests, vx, sql.
  std::vector<double> windows[kServeWindows][3];
  std::vector<double> all_ms, lag, queue, runs, cold;
  std::vector<OpenLoopTiming> timings;
  for (const ServeRecord& rec : records) {
    timings.push_back(rec.timing);
    const double ms = rec.timing.latency_s() * 1e3;
    const int w = std::min(
        kServeWindows - 1,
        static_cast<int>((rec.timing.due_s - t0) / run.opt.seconds *
                         kServeWindows));
    all_ms.push_back(ms);
    windows[w][0].push_back(ms);
    if (rec.kind == kServeVxClassKind) windows[w][1].push_back(ms);
    if (rec.kind == kServeSqlClassKind) windows[w][2].push_back(ms);
    lag.push_back(rec.timing.lateness_s() * 1e3);
    if (!rec.ok) continue;
    queue.push_back(rec.queue_s * 1e3);
    runs.push_back(rec.run_s * 1e3);
    if (rec.cold) cold.push_back(ms);
  }
  const PercentileValue p50 = Percentile(all_ms, 50);
  const PercentileValue p95 = Percentile(all_ms, 95);
  const PercentileValue lag95 = Percentile(lag, 95);
  std::printf("vxbench: all requests latency p50 %.3f ms, p95 %.3f ms "
              "(n=%" PRId64 ", %" PRId64 " beyond p95); limit p95 <= 500 ms: "
              "%s\n",
              p50.value, p95.value, p95.samples, p95.beyond,
              p95.value <= 500 ? "met" : "MISSED");
  const bool backlog = BacklogGrows(timings, 0.05);
  std::printf("vxbench: client start lag p95 %.3f ms; backlog %s\n",
              lag95.value, backlog ? "GROWS" : "steady");
  if (lag95.value > p50.value) {
    std::printf("vxbench: WARNING: generator lateness p95 exceeds latency "
                "p50; this run's latencies are not valid\n");
  }

  Samples& L = run.layers;
  L.Add("client.start_lag_p95_ms", lag95.value);
  L.Add("client.latency_p50_ms", p50.value);
  L.Add("client.latency_p95_ms", p95.value);
  for (const auto& [kind, name] : kServeKindMetrics) {
    std::vector<double> kind_ms;
    for (const ServeRecord& rec : records) {
      if (rec.kind == kind) kind_ms.push_back(rec.timing.latency_s() * 1e3);
    }
    if (!kind_ms.empty()) L.Add(name, Median(kind_ms));
  }
  L.Add("server.queue_p50_ms", Percentile(queue, 50).value);
  L.Add("server.queue_p95_ms", Percentile(queue, 95).value);
  L.Add("server.run_p50_ms", Percentile(runs, 50).value);
  if (!cold.empty()) L.Add("server.cold_p50_ms", Median(cold));
  for (double u : update_ms) L.Add("server.update_ms", u);
  const auto stats = server->admission_stats();
  L.Add("server.admitted", static_cast<double>(stats.admitted));
  L.Add("server.queued", static_cast<double>(stats.queued));
  L.Add("server.clamped", static_cast<double>(stats.clamped));
  L.Add("server.shed", static_cast<double>(stats.shed));
  L.Add("server.max_in_use_threads", stats.max_in_use);
  L.Add("server.retries", static_cast<double>(server->retry_count()));
  // exec counters from every request; vertexica.* and api.run_overhead_s
  // from the narrow vertexica SSSP requests only, the one kind on the
  // frontier path (PageRank's dense supersteps are pagerank-social's).
  for (const ServeRecord& rec : records) {
    if (!rec.ok) continue;
    RecordExec(run, rec.result);
    if (rec.kind == kServeVxSsspKind) {
      RecordVertexica(run, rec.result, rec.run_s);
    }
  }

  if (run.opt.trace) {
    // Spans are built after the window from the recorded timings, so the
    // traced and untraced request paths are identical; the tracing
    // overhead is therefore the cost of this reconstruction, reported as
    // zero on the request path.
    for (size_t i = 0; i < records.size(); ++i) {
      const ServeRecord& rec = records[i];
      const auto req = static_cast<int64_t>(i);
      const int job = run.tracer.Add("job", rec.timing.due_s, rec.timing.end_s,
                                     -1, req);
      run.tracer.Add("client.lag", rec.timing.due_s,
                     std::max(rec.timing.due_s, rec.timing.start_s), job, req);
      if (!rec.ok) continue;
      const double q0 = rec.timing.start_s;
      run.tracer.Add("server.queue", q0, q0 + rec.queue_s, job, req);
      const int sr = run.tracer.Add("server.run", q0 + rec.queue_s,
                                    q0 + rec.queue_s + rec.run_s, job, req);
      AddRunSpans(run, sr, q0 + rec.queue_s, rec.result, req);
    }
    run.tracer.Enclose("workload");
    run.traced_jobs = static_cast<int64_t>(records.size());
    run.expected_layers = {"workload",     "job",           "client.lag",
                           "server.queue", "server.run",    "vertexica.run",
                           "sqlgraph.run", "vertexica.superstep"};
    std::vector<ClassTimes> none;
    EmitPerLayer(run, none, /*check_layer_sum=*/false);
  } else {
    const double peak_rss_mb = PeakRssMb();
    const double setup_s = setup.Finish();
    std::printf("vxbench: end-to-end metrics\n");
    run.Emit("setup_s", setup_s, "s", setup.reps());
    run.Emit("peak_rss_mb", peak_rss_mb, "MB", 1);
    run.Emit("cpu_s_per_job", cpu / std::max<double>(1, records.size()), "s",
             static_cast<int64_t>(records.size()));
    // Median over the windows of each window's percentile.
    auto windowed = [&](const std::string& name, int series, double p) {
      std::vector<double> values;
      int64_t samples = 0, fewest_beyond = INT64_MAX;
      for (const auto& w : windows) {
        const PercentileValue v = Percentile(w[series], p);
        values.push_back(v.value);
        samples += v.samples;
        fewest_beyond = std::min(fewest_beyond, v.beyond);
      }
      run.Emit(name, Median(values), "ms", samples);
      if (fewest_beyond < kMinSamplesBeyond) {
        std::printf("vxbench: note: a window of %s has only %" PRId64
                    " samples beyond it (< %d)\n",
                    name.c_str(), fewest_beyond, kMinSamplesBeyond);
      }
    };
    windowed("vx_p50_ms", 1, 50);
    windowed("vx_p75_ms", 1, 75);
    windowed("sql_p50_ms", 2, 50);
    windowed("sql_p75_ms", 2, 75);
    windowed("all_p95_ms", 0, 95);
    PrintErrorRate(run);
  }
}

}  // namespace

Outcome RunWorkload(const Options& options) {
  Run run(options);
  std::printf("vxbench: workload %s seed %" PRIu64 " seconds %.3f trace %d "
              "threads %d nproc %d build %s commit %s source %s\n",
              options.workload.c_str(), options.seed, options.seconds,
              options.trace ? 1 : 0, run.threads, Nproc(),
#ifdef VXBENCH_BUILD_TYPE
              VXBENCH_BUILD_TYPE,
#else
              "unknown",
#endif
              options.commit.c_str(), options.source_hash.c_str());
  if (options.workload == "pagerank-social") {
    PageRankSocial(run);
  } else if (options.workload == "serve-mix") {
    ServeMix(run);
  } else if (options.workload == "hybrid-pipeline") {
    HybridPipelineWorkload(run);
  }
  return std::move(run.out);
}

}  // namespace vxbench
