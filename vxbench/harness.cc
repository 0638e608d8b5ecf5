#include "harness.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <utility>

#include <sys/resource.h>

extern char** environ;

namespace vxbench {

int64_t NearestRank(int64_t n, double p) {
  if (n <= 0) return 0;
  const auto rank =
      static_cast<int64_t>(std::ceil(p / 100.0 * static_cast<double>(n) -
                                     1e-9));
  return std::clamp<int64_t>(rank, 1, n);
}

int64_t SamplesBeyond(int64_t n, double p) { return n - NearestRank(n, p); }

double HighestSupportedPercentile(int64_t n,
                                  const std::vector<double>& ladder) {
  for (double p : ladder) {
    if (n > 0 && SamplesBeyond(n, p) >= kMinSamplesBeyond) return p;
  }
  return 0;
}

PercentileValue Percentile(std::vector<double> samples, double p) {
  PercentileValue out;
  out.p = p;
  out.samples = static_cast<int64_t>(samples.size());
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const int64_t rank = NearestRank(out.samples, p);
  out.value = samples[static_cast<size_t>(rank - 1)];
  out.beyond = out.samples - rank;
  return out;
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50).value;
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    double duration_s) {
  std::vector<double> due;
  if (rate_per_s <= 0 || duration_s <= 0) return due;
  // The harness's own generator and inverse-CDF draw, so the schedule for a
  // seed never changes with the library's RNG.
  std::mt19937_64 rng(seed ^ 0x5bd1e995u);
  double t = 0;
  for (;;) {
    const double u =
        (static_cast<double>(rng() >> 11) + 0.5) * (1.0 / 9007199254740992.0);
    t += -std::log(u) / rate_per_s;
    if (t >= duration_s) break;
    due.push_back(t);
  }
  return due;
}

bool BacklogGrows(const std::vector<OpenLoopTiming>& timings, double slack_s) {
  if (timings.size() < 8) return false;
  std::vector<OpenLoopTiming> sorted = timings;
  std::sort(sorted.begin(), sorted.end(),
            [](const OpenLoopTiming& a, const OpenLoopTiming& b) {
              return a.due_s < b.due_s;
            });
  const size_t quarter = sorted.size() / 4;
  std::vector<double> first, last;
  for (size_t i = 0; i < quarter; ++i) {
    first.push_back(sorted[i].lateness_s());
    last.push_back(sorted[sorted.size() - 1 - i].lateness_s());
  }
  return Median(last) > Median(first) + slack_s;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  if (!ValidMetricName(name)) {
    std::fprintf(stderr, "vxbench: invalid metric name '%s'\n", name.c_str());
    std::abort();
  }
  metrics_[name] = Metric{value, unit};
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const MetricSet& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics.all()) {
    if (!first) out << ", ";
    first = false;
    out << JsonString(name) << ": {\"value\": " << JsonNumber(metric.value)
        << ", \"unit\": " << JsonString(metric.unit) << "}";
  }
  out << "}}";
  return out.str();
}

int Tracer::Add(std::string name, double start_s, double end_s, int parent,
                int64_t request) {
  spans_.push_back(Span{std::move(name), start_s, end_s, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

int Tracer::Enclose(std::string name) {
  double lo = 0, hi = 0;
  bool any = false;
  for (const Span& s : spans_) {
    if (s.parent >= 0) continue;
    lo = any ? std::min(lo, s.start_s) : s.start_s;
    hi = any ? std::max(hi, s.end_s) : s.end_s;
    any = true;
  }
  const int root = Add(std::move(name), lo, hi, -1, -1);
  for (int i = 0; i < root; ++i) {
    if (spans_[static_cast<size_t>(i)].parent < 0) {
      spans_[static_cast<size_t>(i)].parent = root;
    }
  }
  return root;
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  // Children of each span, then the union of their intervals clipped to the
  // parent: overlapping children (parallel pipeline nodes) are not counted
  // twice, so self time can only go negative if a child pokes outside its
  // parent — which the caller reports as an error.
  std::vector<std::vector<int>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<double, double>> iv;
    double outside = 0;
    for (int c : children[i]) {
      const Span& k = spans_[static_cast<size_t>(c)];
      outside += std::max(0.0, k.end_s - s.end_s) +
                 std::max(0.0, s.start_s - k.start_s);
      iv.emplace_back(std::max(k.start_s, s.start_s),
                      std::min(k.end_s, s.end_s));
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_lo = 0, cur_hi = -1;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[s.name] += (s.end_s - s.start_s) - covered - outside;
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": " << JsonString(s.name)
        << ", \"start_s\": " << JsonNumber(s.start_s)
        << ", \"end_s\": " << JsonNumber(s.end_s)
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::string ForbiddenEnvironment() {
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    if (std::strncmp(*env, "VERTEXICA_", 10) == 0) {
      const char* eq = std::strchr(*env, '=');
      return eq == nullptr ? std::string(*env)
                           : std::string(*env, static_cast<size_t>(eq - *env));
    }
  }
  return "";
}

namespace {

/// FNV-1a, the harness's own, so a fingerprint never changes with the
/// library's hash functions.
struct Fnv {
  uint64_t h = 1469598103934665603ull;
  void Bytes(const void* data, size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  template <typename T>
  void Pod(const T& v) {
    Bytes(&v, sizeof(v));
  }
};

}  // namespace

std::string Fingerprint::ToString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%" PRId64 "x%" PRId64 ":%016" PRIx64, rows,
                columns, hash);
  return buf;
}

Fingerprint FingerprintOf(const vertexica::Graph& graph) {
  Fnv fnv;
  fnv.Pod(graph.num_vertices);
  fnv.Pod(graph.directed);
  for (int64_t e = 0; e < graph.num_edges(); ++e) {
    fnv.Pod(graph.src[static_cast<size_t>(e)]);
    fnv.Pod(graph.dst[static_cast<size_t>(e)]);
    fnv.Pod(graph.EdgeWeight(e));
  }
  return Fingerprint{graph.num_vertices, graph.num_edges(), fnv.h};
}

Fingerprint FingerprintOf(const vertexica::Table& table) {
  Fnv fnv;
  for (int c = 0; c < table.num_columns(); ++c) {
    const vertexica::Column& col = table.column(c);
    fnv.Pod(static_cast<int>(col.type()));
    for (int64_t r = 0; r < table.num_rows(); ++r) {
      if (col.IsNull(r)) {
        fnv.Pod(uint8_t{0xff});
        continue;
      }
      switch (col.type()) {
        case vertexica::DataType::kBool:
          fnv.Pod(static_cast<uint8_t>(col.GetBool(r)));
          break;
        case vertexica::DataType::kInt64:
          fnv.Pod(col.GetInt64(r));
          break;
        case vertexica::DataType::kDouble:
          fnv.Pod(col.GetDouble(r));
          break;
        case vertexica::DataType::kString: {
          const std::string& s = col.GetString(r);
          fnv.Bytes(s.data(), s.size());
          fnv.Pod(uint8_t{0});
          break;
        }
      }
    }
  }
  return Fingerprint{table.num_rows(), table.num_columns(), fnv.h};
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace vxbench
