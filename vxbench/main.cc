/// \file main.cc
/// \brief vxbench: runs one benchmark workload and prints its metrics.
///
///   vxbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///           [--rate <req/s>] [--trace-dir <dir>] [--commit <id>]
///           [--source-hash <hash>] [--inject-wrong-answer]
///   vxbench --list-metrics
///
/// The last line of standard output is one JSON object with the keys
/// correct, attempted, failed and metrics: the end-to-end metrics with
/// --trace 0, the per-layer metrics with --trace 1. The exit code is 0 only
/// when every answer matched its oracle.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "vxbench: %s\nusage: vxbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--rate <req/s>] [--trace-dir "
               "<dir>] [--commit <id>] [--source-hash <hash>] "
               "[--inject-wrong-answer]\n       vxbench --list-metrics\n",
               why);
  return 2;
}

void ListMetrics() {
  for (const auto& m : vxbench::EndToEndMetrics()) {
    std::printf("end_to_end %s %s %s\n", m.name.c_str(), m.unit.c_str(),
                m.better.c_str());
  }
  for (const auto& m : vxbench::PerLayerMetrics()) {
    std::printf("per_layer %s %s %s\n", m.name.c_str(), m.unit.c_str(),
                m.better.c_str());
  }
  for (const auto& w : vxbench::WorkloadNames()) {
    std::printf("workload %s\n", w.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  vxbench::Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--list-metrics") {
      ListMetrics();
      return 0;
    } else if (arg == "--inject-wrong-answer") {
      opt.inject_wrong_answer = true;
    } else {
      const char* v = value();
      if (v == nullptr) return Usage(("missing value for " + arg).c_str());
      if (arg == "--workload") {
        opt.workload = v;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::strtoull(v, nullptr, 10);
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::strtod(v, nullptr);
        have_seconds = opt.seconds > 0;
      } else if (arg == "--trace") {
        opt.trace = std::string(v) == "1";
        have_trace = std::string(v) == "0" || opt.trace;
      } else if (arg == "--rate") {
        opt.rate = std::strtod(v, nullptr);
      } else if (arg == "--trace-dir") {
        opt.trace_dir = v;
      } else if (arg == "--commit") {
        opt.commit = v;
      } else if (arg == "--source-hash") {
        opt.source_hash = v;
      } else {
        return Usage(("unknown argument " + arg).c_str());
      }
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  bool known = false;
  for (const auto& w : vxbench::WorkloadNames()) known |= w == opt.workload;
  if (!known) return Usage(("unknown workload " + opt.workload).c_str());

  // What is measured must be what a user gets: no knob overrides, no fault
  // injection, no audit build.
  const std::string env = vxbench::ForbiddenEnvironment();
  if (!env.empty()) {
    std::fprintf(stderr,
                 "vxbench: refusing to run with %s set: it changes what is "
                 "measured\n",
                 env.c_str());
    return 2;
  }
#ifdef VERTEXICA_DCHECK
  std::fprintf(stderr,
               "vxbench: refusing to run on a VERTEXICA_DCHECK build\n");
  return 2;
#endif

  const vxbench::Outcome out = vxbench::RunWorkload(opt);
  std::printf("%s\n", vxbench::ResultJson(out.correct, out.attempted,
                                          out.failed, out.metrics)
                          .c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
