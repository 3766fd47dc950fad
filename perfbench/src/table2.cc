// table2-layers: the 20 Table-2 layers through make_conv_engine(kLoWinoF4)
// in its default (kAuto) execution mode, on an nproc-thread pool, one
// closed-loop caller, layer after layer.
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "harness.h"
#include "lowino/convolution.h"
#include "nn/engines.h"
#include "nn/model_zoo.h"
#include "parallel/thread_pool.h"
#include "profile/profiler.h"

namespace perfbench {
namespace {

using lowino::ConvDesc;
using lowino::ConvEngine;
using lowino::EngineKind;
using lowino::ThreadPool;

/// One layer: seeded problem data, the output check's reference at sampled
/// output positions, and the engine under test.
struct Layer {
  std::string name;
  std::string metric;  ///< "conv.<name>.ms"
  ConvDesc desc;
  lowino::Tensor<float> input;
  std::vector<float> weights, bias;
  std::vector<std::size_t> samples;  ///< flat NCHW output indices
  std::vector<float> ref;            ///< FP64-accumulated direct conv at samples
  std::vector<float> first;          ///< first checked output at samples
  std::unique_ptr<ConvEngine> engine;
  std::vector<double> ms;            ///< measured run times
};

struct Table2 {
  std::vector<Layer> layers;
  std::vector<float> out;  ///< shared output buffer (largest layer)
};

/// Direct convolution at one output position, accumulated in double.
float direct_at(const Layer& l, std::size_t flat) {
  const ConvDesc& d = l.desc;
  const std::size_t oh = d.out_height(), ow = d.out_width();
  const std::size_t x = flat % ow, y = (flat / ow) % oh;
  const std::size_t k = (flat / (ow * oh)) % d.out_channels;
  const std::size_t n = flat / (ow * oh * d.out_channels);
  double acc = l.bias[k];
  const std::size_t r = d.kernel;
  for (std::size_t c = 0; c < d.in_channels; ++c) {
    for (std::size_t ky = 0; ky < r; ++ky) {
      const long iy = static_cast<long>(y + ky) - static_cast<long>(d.pad);
      if (iy < 0 || iy >= static_cast<long>(d.height)) continue;
      for (std::size_t kx = 0; kx < r; ++kx) {
        const long ix = static_cast<long>(x + kx) - static_cast<long>(d.pad);
        if (ix < 0 || ix >= static_cast<long>(d.width)) continue;
        const float in = l.input.data()[((n * d.in_channels + c) * d.height +
                                         static_cast<std::size_t>(iy)) * d.width +
                                        static_cast<std::size_t>(ix)];
        const float w = l.weights[((k * d.in_channels + c) * r + ky) * r + kx];
        acc += static_cast<double>(in) * static_cast<double>(w);
      }
    }
  }
  return static_cast<float>(acc);
}

Table2 make_data(const RunArgs& args) {
  Table2 t;
  const std::size_t n_samples = kTable2CheckSamples;
  std::size_t max_out = 0;
  for (const lowino::PaperLayer& pl : lowino::paper_layers_table2(kTable2Batch)) {
    Layer l;
    l.name = pl.name;
    l.metric = "conv." + pl.name + ".ms";
    l.desc = pl.desc;
    const ConvDesc& d = l.desc;
    l.input = random_tensor({d.batch, d.in_channels, d.height, d.width},
                            derive_seed(args.seed, "table2.input." + l.name));
    lowino::Rng rng(derive_seed(args.seed, "table2.weights." + l.name));
    const float scale = 1.0f / std::sqrt(static_cast<float>(d.in_channels * d.kernel * d.kernel));
    l.weights.resize(d.out_channels * d.in_channels * d.kernel * d.kernel);
    for (float& w : l.weights) w = rng.normal() * scale;
    l.bias.resize(d.out_channels);
    for (float& b : l.bias) b = rng.uniform(-0.1f, 0.1f);
    const std::size_t out_elems = d.batch * d.out_channels * d.out_height() * d.out_width();
    max_out = std::max(max_out, out_elems);
    l.samples.resize(n_samples);
    for (std::size_t& s : l.samples) s = rng.next_below(out_elems);
    l.ref.resize(n_samples);
    for (std::size_t i = 0; i < n_samples; ++i) l.ref[i] = direct_at(l, l.samples[i]);
    t.layers.push_back(std::move(l));
  }
  t.out.resize(max_out);
  return t;
}

/// Builds, calibrates and packs every layer's engine; returns the seconds
/// spent inside the library (data generation excluded).
double build_engines(Table2& t) {
  double seconds = 0.0;
  for (Layer& l : t.layers) {
    const auto t0 = Clock::now();
    auto engine = lowino::make_conv_engine(EngineKind::kLoWinoF4, l.desc);
    engine->calibrate(l.input.span());
    engine->finalize_calibration();
    engine->set_filters(l.weights, l.bias);
    seconds += seconds_since(t0);
    l.engine = std::move(engine);
  }
  return seconds;
}

/// Output check, outside the timed region: the first run of a layer must
/// reach the SNR floor against the FP64 direct reference; every later run
/// must reproduce the first run bit for bit.
bool check(Layer& l, const std::vector<float>& out) {
  std::vector<float> got(l.samples.size());
  for (std::size_t i = 0; i < l.samples.size(); ++i) got[i] = out[l.samples[i]];
  if (l.first.empty()) {
    if (!(snr_db(l.ref.data(), got.data(), got.size()) >= kTable2SnrFloorDb)) return false;
    l.first = std::move(got);
    return true;
  }
  return std::memcmp(got.data(), l.first.data(), got.size() * sizeof(float)) == 0;
}

/// One 20-layer sweep; returns the summed run time in seconds (checks and
/// span bookkeeping excluded) and records each layer's time when `record`.
double sweep(Table2& t, ThreadPool& pool, Result& result, Tracer* tracer, bool record) {
  SpanScope sweep_span(tracer, "table2.sweep");
  double total = 0.0;
  for (std::size_t i = 0; i < t.layers.size(); ++i) {
    Layer& l = t.layers[i];
    const std::span<float> out(t.out.data(),
                               l.desc.batch * l.desc.out_channels * l.desc.out_height() *
                                   l.desc.out_width());
    ++result.attempted;
    double sec = 0.0;
    bool ok = true;
    {
      SpanScope span(tracer, "ConvEngine::run", i);
      const auto t0 = Clock::now();
      try {
        l.engine->run(l.input.span(), out, &pool);
      } catch (const std::exception&) {
        ok = false;
      }
      sec = seconds_since(t0);
    }
    const bool correct = !ok || check(l, t.out);
    if (!ok || !correct) ++result.failed;
    if (!correct) ++result.wrong;
    total += sec;
    if (record) l.ms.push_back(1e3 * sec);
  }
  return total;
}

double direct_gops(const Layer& l, double ms) { return 2.0 * l.desc.direct_macs() / ms / 1e6; }

}  // namespace

void run_table2(const RunArgs& args, Result& result) {
  ThreadPool pool(nproc());
  Table2 t = make_data(args);
  const double setup_s = build_engines(t);
  sweep(t, pool, result, nullptr, /*record=*/false);  // warm-up, checked

  std::vector<double> sweeps_ms;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < args.seconds || sweeps_ms.size() < 3) {
    sweeps_ms.push_back(1e3 * sweep(t, pool, result, nullptr, /*record=*/true));
  }
  // The bounded timings use each layer's 10th percentile: the host's noise
  // is intermittent stalls, which move medians between runs far more than
  // the fast end of the distribution. Taken per layer, a quiet moment counts
  // even when no whole sweep was quiet. The medians stay in the detail line.
  std::vector<double> gops, gops_p10;
  double sweep_p10_ms = 0.0;
  for (const Layer& l : t.layers) {
    const double p10 = quantile(l.ms, 0.1);
    sweep_p10_ms += p10;
    gops.push_back(direct_gops(l, median(l.ms)));
    gops_p10.push_back(direct_gops(l, p10));
  }
  const Quantile tl = tail(sweeps_ms);

  result.metric("setup_s", setup_s, "s");
  result.metric("p10_ms", sweep_p10_ms, "ms");
  result.metric("gops", geomean(gops_p10), "GOPS");
  result.info("conv_sweep_ms", median(sweeps_ms), "ms");
  result.info("conv_sweep_tail_ms", tl.value, "ms");
  result.info("conv_sweep_tail_q", tl.q, "1");
  result.info("conv_sweeps", static_cast<double>(tl.n), "count");
  result.info("conv_geomean_gops", geomean(gops), "GOPS");
}

double probe_table2(const RunArgs& args, double seconds, TraceSession& trace, Result& result,
                    bool overhead) {
  ThreadPool pool(nproc());
  Table2 t = make_data(args);

  trace.enable(true);
  lowino::profiler_reset();
  {
    SpanScope span(trace.active(), "table2.setup");
    build_engines(t);
  }
  const auto setup_totals = lowino::profiler_stage_totals();
  result.info("lowino.filter_pack_s", stage_s(setup_totals, lowino::ProfileStage::kFilterPack),
              "s");
  result.info("lowino.calibration_s", stage_s(setup_totals, lowino::ProfileStage::kCalibration),
              "s");
  sweep(t, pool, result, trace.active(), /*record=*/false);  // warm-up, checked

  // Traced sweeps: per-layer times and the profiler's per-stage busy time.
  lowino::profiler_reset();
  std::vector<double> wall_ms;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < 0.5 * seconds || wall_ms.size() < 2) {
    const auto s0 = Clock::now();
    sweep(t, pool, result, trace.active(), /*record=*/true);
    wall_ms.push_back(1e3 * seconds_since(s0));
  }
  const auto totals = lowino::profiler_stage_totals();
  const double n = static_cast<double>(wall_ms.size());
  const double it = stage_s(totals, lowino::ProfileStage::kInputTransform) / n;
  const double gemm = stage_s(totals, lowino::ProfileStage::kGemm) / n;
  const double ot = stage_s(totals, lowino::ProfileStage::kOutputTransform) / n;
  double wino_ops = 0.0, workspace = 0.0, fused = 0.0;
  for (const Layer& l : t.layers) {
    result.info(l.metric, median(l.ms), "ms");
    wino_ops += 2.0 * lowino::WinogradGeometry(l.desc, 4).winograd_macs(l.desc);
    // The mode kAuto resolves to for this layer at this pool size (what the
    // engine's last_execution_mode() reports after a run), and its workspace.
    lowino::LoWinoConfig cfg;
    cfg.m = 4;
    const lowino::LoWinoConvolution side(l.desc, cfg);
    fused += side.resolve_execution_mode(pool.num_threads()) == lowino::ExecutionMode::kFused;
    workspace += static_cast<double>(
        side.workspace_bytes(lowino::ExecutionMode::kAuto, pool.num_threads()));
  }
  result.info("lowino.input_transform_s", it, "s");
  result.info("lowino.gemm_s", gemm, "s");
  result.info("lowino.output_transform_s", ot, "s");
  result.info("lowino.gemm_gops", gemm > 0.0 ? wino_ops / gemm / 1e9 : 0.0, "GOPS");
  result.info("lowino.fused_layers", fused, "count");
  result.info("lowino.workspace_mb", workspace / (1024.0 * 1024.0), "MB");
  result.info("parallel.busy_frac",
              (it + gemm + ot) / (1e-3 * median(wall_ms) * static_cast<double>(pool.num_threads())),
              "1");
  trace.enable(false);

  // Scaling: untraced sweeps on one thread against the nproc pool.
  ThreadPool one(1);
  std::vector<double> multi_ms, single_ms;
  for (int rep = 0; rep < 2; ++rep) {
    multi_ms.push_back(sweep(t, pool, result, nullptr, false));
    single_ms.push_back(sweep(t, one, result, nullptr, false));
  }
  result.info("parallel.scaling", median(single_ms) / median(multi_ms), "x");

  if (!overhead) return 0.0;
  // Alternate untraced and traced sweeps.
  std::vector<double> ratios;
  const auto o0 = Clock::now();
  while (seconds_since(o0) < 0.3 * seconds || ratios.size() < 3) {
    const double off = sweep(t, pool, result, nullptr, false);
    trace.enable(true);
    const double on = sweep(t, pool, result, trace.active(), false);
    trace.enable(false);
    ratios.push_back(on / off);
  }
  return median(ratios) - 1.0;
}

}  // namespace perfbench
