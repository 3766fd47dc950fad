// Shared pieces of the perfbench harness: run arguments and the fixed
// workload parameters, the result record
// (end-to-end and per-layer metrics, operation counts), latency statistics,
// seeded input generation and the in-memory span tracer.
//
// Every timing here is taken from outside the library, around calls to its
// public functions; nothing in src/ is instrumented for the benchmark.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "common/timer.h"
#include "profile/profiler.h"
#include "tensor/tensor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Per-run arguments (the command line).
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_path;  ///< where the traced run writes its spans
};

// Fixed workload parameters. The binary prints them on its "params" line.

/// table2-layers: batch of every Table-2 layer (the batch-64 rows shrunk to
/// keep one sweep under a second on a 4-core host).
inline constexpr std::size_t kTable2Batch = 4;
/// Output positions per layer checked against the FP64 direct reference.
inline constexpr std::size_t kTable2CheckSamples = 1024;
/// LoWino F(4x4) reaches ~18 dB on uniform random data, F(2x2) ~35 dB.
inline constexpr double kTable2SnrFloorDb = 15.0;

/// session-zoo: batch and square image size of every session. Batch 16 is
/// the EXPERIMENTS.md zoo batch; batch 4 spread more between runs.
inline constexpr std::size_t kZooBatch = 16;
inline constexpr std::size_t kZooHw = 32;
/// Distinct seeded inputs per model, served in turn.
inline constexpr std::size_t kZooInputs = 4;
/// Shoot-out time per candidate; 0.25 s did not stop noise-driven flips.
inline constexpr double kZooSecondsPerCandidate = 0.05;
/// INT8 sessions against the FP32 SequentialModel::forward.
inline constexpr double kZooSnrFloorDb = 10.0;

/// Serving probe: MiniResNet at 16x16, two one-thread workers, batches of
/// up to four, half a millisecond of linger.
inline constexpr std::size_t kServeHw = 16;
inline constexpr std::size_t kServeMaxBatch = 4;
inline constexpr std::size_t kServeWorkers = 2;
inline constexpr std::int64_t kServeLingerNs = 500'000;
inline constexpr double kServeSecondsPerCandidate = 0.1;
/// Distinct seeded images the clients draw from.
inline constexpr std::size_t kServeImages = 64;
/// Open-loop arrival rates, req/s: about 25% and 45% of the closed-loop
/// capacity measured on a 4-vCPU host. Absolute, never derived in the run.
inline constexpr double kServeRateMid = 250.0;
inline constexpr double kServeRateHigh = 450.0;
/// Latency limit of serve.high_slo_frac.
inline constexpr double kServeSloMs = 25.0;

/// CPUs this process may run on: the pool size of the multi-threaded
/// workloads.
std::size_t nproc();

/// Seed of the calibration batches. Calibration data is part of a model's
/// deployment, like its weights, so it stays fixed across runs; the run seed
/// drives the inputs served and the arrival schedule. (Seeded calibration
/// moves layers across the planner's SNR envelope and flips plans.)
inline constexpr std::uint64_t kCalibSeed = 0x10ca1;

/// Derives an independent stream seed from the run seed and a stream label,
/// so each generated input depends only on (seed, label).
std::uint64_t derive_seed(std::uint64_t seed, const std::string& label);

/// Uniform [-1, 1) NCHW tensor from a derived seed.
lowino::Tensor<float> random_tensor(std::vector<std::size_t> shape, std::uint64_t seed);

/// What a workload reports.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;  ///< the BENCHMARK.json metrics (last output line)
  std::vector<Metric> detail;   ///< per-workload named and diagnostic values
  std::uint64_t attempted = 0;  ///< operations tried
  std::uint64_t failed = 0;     ///< threw, refused, expired or failed a check
  std::uint64_t wrong = 0;      ///< the failed ones whose output failed a check

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void info(const std::string& name, double value, const std::string& unit) {
    detail.push_back({name, value, unit});
  }
  double ok_frac() const {
    return attempted == 0 ? 0.0
                          : 1.0 - static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

/// A percentile together with the sample count it came from.
struct Quantile {
  double value = 0.0;
  double q = 0.0;     ///< the quantile actually used
  std::size_t n = 0;  ///< samples
};

double median(std::vector<double> v);
/// The highest quantile, capped at `cap`, that still has at least ten samples
/// beyond it: q = min(cap, 1 - 10 / n). With fewer than 20 samples the median.
Quantile tail(std::vector<double> v, double cap = 0.99);
/// Quantile q of v (nearest rank on the sorted samples).
double quantile(std::vector<double> v, double q);
double geomean(const std::vector<double>& v);

/// Median seconds of `fn` over runs for `budget_s` seconds, after one
/// warm-up run and at least five measured runs (lowino::time_it).
template <typename Fn>
double time_for(Fn&& fn, double budget_s) {
  return lowino::time_it(fn, 1, 5, std::numeric_limits<int>::max(), budget_s).median;
}

/// Busy seconds of one stage in a profiler_stage_totals() snapshot.
inline double stage_s(const std::array<lowino::ProfileStageTotals, lowino::kProfileStageCount>& t,
                      lowino::ProfileStage s) {
  return t[static_cast<std::size_t>(s)].seconds;
}

/// Peak resident set size of the process, MiB (getrusage).
double peak_rss_mb();

/// Signal-to-noise ratio of `actual` against `ref`, dB (inf when equal).
double snr_db(const float* ref, const float* actual, std::size_t n);

/// In-memory span recorder for the traced run. A span is (name, start, end,
/// parent, request id); parents come from a per-thread stack of open spans.
/// Everything is kept in memory and written once, at the end of the run.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index of the enclosing span, -1 at the root
    std::uint64_t request = 0;
    std::uint32_t thread = 0;
  };

  explicit Tracer(std::size_t reserve = 1u << 18) { spans_.reserve(reserve); }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span; returns its index (pass it to close()).
  std::int64_t open(const char* name, std::uint64_t request);
  void close(std::int64_t index);
  std::size_t size() const;

  /// Writes the spans as a chrome://tracing JSON document, with `notes`
  /// (plan summaries) under "notes". Returns false when the file can't be
  /// written.
  bool write(const std::string& path, const std::vector<std::string>& notes) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

/// RAII span; a null tracer makes it a no-op (the untraced path).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, std::uint64_t request = 0)
      : tracer_(tracer), index_(tracer ? tracer->open(name, request) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  std::int64_t index_;
};

/// Tracing state of a traced run: the span recorder plus the library's own
/// stage profiler, switched on and off together.
struct TraceSession {
  Tracer tracer;
  std::vector<std::string> notes;
  void enable(bool on);
  Tracer* active() { return enabled_ ? &tracer : nullptr; }

 private:
  bool enabled_ = false;
};

/// Entry points. run_* measure one workload's end-to-end metrics with tracing
/// off. probe_* measure the per-layer metrics of one program area with
/// tracing on; when `overhead` is set they also time the area's unit of work
/// with tracing off and on, alternately, and return the median traced /
/// untraced ratio - 1 (trace.overhead_frac), otherwise 0.
void run_table2(const RunArgs& args, Result& result);
void run_zoo(const RunArgs& args, Result& result);
double probe_table2(const RunArgs& args, double seconds, TraceSession& trace, Result& result,
                    bool overhead);
double probe_zoo(const RunArgs& args, double seconds, TraceSession& trace, Result& result,
                 bool overhead);
void probe_serve(const RunArgs& args, double seconds, TraceSession& trace, Result& result);

}  // namespace perfbench
