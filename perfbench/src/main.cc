// perfbench: one seeded benchmark of LoWino, end to end and per layer.
//
//   perfbench --workload table2-layers|session-zoo --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// perfbench/run.py builds and runs this binary. The fixed workload
// parameters are constants in harness.h. The untraced run (--trace 0)
// measures the named workload and reports its end-to-end metrics; the traced
// run (--trace 1) profiles every program area (the Table-2 layers, the zoo
// sessions, the batching server) with spans and the library's stage
// profiler, reports the per-layer metrics, and times the named workload's
// unit of work with tracing off and on (trace.overhead_frac). The last line
// of standard output is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// preceded by a {"params": {...}} line with the fixed parameters and the
// pool size and, in untraced runs, by a {"detail": {...}} line with the
// per-workload named and diagnostic values. Exit code 0 when the run completed
// (whatever the checks found).
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "harness.h"

namespace perfbench {
namespace {

RunArgs parse(int argc, char** argv) {
  RunArgs a;
  a.seed = 1;
  a.seconds = 10.0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload != "table2-layers" && a.workload != "session-zoo") {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

void print_metrics(const std::vector<Result::Metric>& ms) {
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (!std::isfinite(ms[i].value)) {
      throw std::runtime_error("metric " + ms[i].name + " is not finite");
    }
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
  }
}

void print_params() {
  std::printf(
      "{\"params\": {\"threads\": %zu, \"table2_batch\": %zu, \"zoo_batch\": %zu, "
      "\"zoo_hw\": %zu, \"serve_max_batch\": %zu, \"serve_workers\": %zu, "
      "\"serve_rate_mid\": %g, \"serve_rate_high\": %g, \"serve_slo_ms\": %g}}\n",
      nproc(), kTable2Batch, kZooBatch, kZooHw, kServeMaxBatch, kServeWorkers, kServeRateMid,
      kServeRateHigh, kServeSloMs);
}

int run(const RunArgs& args) {
  Result result;
  print_params();
  if (!args.trace) {
    if (args.workload == "table2-layers") run_table2(args, result);
    if (args.workload == "session-zoo") run_zoo(args, result);
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    result.metric("ok_frac", result.ok_frac(), "1");
    result.info("failed_frac", 1.0 - result.ok_frac(), "1");
    std::printf("{\"detail\": {");
    print_metrics(result.detail);
    std::printf("}}\n");
  } else {
    // Every area is profiled in every traced run, so the per-layer metric set
    // is the same whichever workload is named; the named one also gets its
    // tracing overhead measured.
    TraceSession trace;
    const double s = args.seconds;
    const double t2 = probe_table2(args, 0.35 * s, trace, result, args.workload == "table2-layers");
    const double zo = probe_zoo(args, 0.3 * s, trace, result, args.workload == "session-zoo");
    probe_serve(args, 0.35 * s, trace, result);
    result.info("trace.overhead_frac", t2 + zo, "1");
    if (!args.trace_path.empty() && !trace.tracer.write(args.trace_path, trace.notes)) {
      throw std::runtime_error("cannot write " + args.trace_path);
    }
    for (const std::string& note : trace.notes) std::printf("%s", note.c_str());
    result.metrics = result.detail;
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.wrong == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  print_metrics(result.metrics);
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
