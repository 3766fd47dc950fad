// session-zoo: InferenceSessions for MiniVGG, MiniResNet and MiniMobileNet,
// compiled by the normal planner over the bench_session candidate set, run
// at one batch and image size on an nproc-thread pool by one closed-loop
// caller taking the models round-robin.
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.h"
#include "nn/layers.h"
#include "nn/model_zoo.h"
#include "parallel/thread_pool.h"
#include "profile/profiler.h"
#include "serve/session.h"

namespace perfbench {
namespace {

using lowino::EngineKind;
using lowino::InferenceSession;
using lowino::SequentialModel;
using lowino::Tensor;
using lowino::ThreadPool;

const EngineKind kCandidates[] = {EngineKind::kInt8Direct,  EngineKind::kLoWinoF2,
                                  EngineKind::kLoWinoF4,    EngineKind::kLoWinoF6,
                                  EngineKind::kInt8Conv1x1, EngineKind::kInt8Depthwise};

struct Model {
  std::string name;  ///< lower case, as in the metric names
  SequentialModel model;
  std::optional<InferenceSession> session;
  std::vector<Tensor<float>> inputs;
  std::vector<Tensor<float>> fp32;               ///< SequentialModel::forward
  std::vector<std::vector<float>> first;         ///< first checked session output
  std::vector<double> ms;
  double compile_s = 0.0;
};

struct Zoo {
  std::vector<Model> models;
  Tensor<float> calib;
  lowino::PlanOptions options;
};

Zoo make_zoo(const RunArgs& args, ThreadPool& pool) {
  Zoo z;
  z.calib = random_tensor({kZooBatch, 1, kZooHw, kZooHw}, derive_seed(kCalibSeed, "zoo.calib"));
  z.options.candidates.assign(std::begin(kCandidates), std::end(kCandidates));
  z.options.pool = &pool;
  z.options.seconds_per_candidate = kZooSecondsPerCandidate;
  const std::pair<const char*, SequentialModel (*)(std::size_t)> zoo[] = {
      {"minivgg", [](std::size_t hw) { return lowino::make_minivgg(hw); }},
      {"miniresnet", [](std::size_t hw) { return lowino::make_miniresnet(hw); }},
      {"minimobilenet", [](std::size_t hw) { return lowino::make_minimobilenet(hw); }}};
  for (const auto& [name, make] : zoo) {
    Model m;
    m.name = name;
    m.model = make(kZooHw);
    for (std::size_t i = 0; i < kZooInputs; ++i) {
      m.inputs.push_back(random_tensor({kZooBatch, 1, kZooHw, kZooHw},
                                       derive_seed(args.seed, "zoo.input." + std::to_string(i))));
      m.fp32.push_back(m.model.forward(m.inputs.back()));
    }
    m.first.resize(m.inputs.size());
    z.models.push_back(std::move(m));
  }
  return z;
}

/// Compiles every model's session; returns the summed compile seconds.
double compile_all(Zoo& z, Tracer* tracer) {
  double total = 0.0;
  for (Model& m : z.models) {
    SpanScope span(tracer, "InferenceSession::compile");
    const auto t0 = Clock::now();
    m.session.emplace(InferenceSession::compile(m.model, z.calib, z.options));
    m.compile_s = seconds_since(t0);
    total += m.compile_s;
  }
  return total;
}

/// Runs one model on input `i`; returns seconds. The output check runs after
/// the clock stops: the first output for an input must reach the SNR floor
/// against SequentialModel::forward, later ones must equal it bit for bit.
double run_once(Model& m, std::size_t i, Tensor<float>& out, Result& result,
                Tracer* tracer, std::uint64_t request) {
  ++result.attempted;
  bool ok = true;
  double sec = 0.0;
  {
    SpanScope span(tracer, "InferenceSession::run", request);
    const auto t0 = Clock::now();
    try {
      m.session->run(m.inputs[i], out);
    } catch (const std::exception&) {
      ok = false;
    }
    sec = seconds_since(t0);
  }
  bool correct = true;
  if (ok && out.size() != m.fp32[i].size()) {
    correct = false;
  } else if (ok && m.first[i].empty()) {
    correct = snr_db(m.fp32[i].data(), out.data(), out.size()) >= kZooSnrFloorDb;
    if (correct) m.first[i].assign(out.data(), out.data() + out.size());
  } else if (ok) {
    correct = std::memcmp(out.data(), m.first[i].data(), out.size() * sizeof(float)) == 0;
  }
  if (!ok || !correct) ++result.failed;
  if (!correct) ++result.wrong;
  return sec;
}

/// Round-robin closed loop over the models for `seconds` (at least `min_rounds`
/// rounds); each run's time is appended to its model's `ms` when `record`.
void round_robin(Zoo& z, double seconds, std::size_t min_rounds, Result& result,
                 Tracer* tracer, bool record) {
  Tensor<float> out;
  const auto t0 = Clock::now();
  for (std::uint64_t r = 0; seconds_since(t0) < seconds || r < min_rounds * z.models.size();
       ++r) {
    Model& m = z.models[r % z.models.size()];
    const std::size_t i = (r / z.models.size()) % m.inputs.size();
    const double sec = run_once(m, i, out, result, tracer, r);
    if (record) m.ms.push_back(1e3 * sec);
  }
}

/// Quantizable convolutions of a model, in lowering (plan) order.
std::vector<lowino::ConvLayer*> planned_convs(SequentialModel& model) {
  std::vector<lowino::ConvLayer*> convs;
  const auto add = [&](lowino::ConvLayer& c) {
    if (c.quantizable()) convs.push_back(&c);
  };
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    if (auto* c = dynamic_cast<lowino::ConvLayer*>(&model.layer(i))) add(*c);
    if (auto* b = dynamic_cast<lowino::ResidualBlock*>(&model.layer(i))) {
      add(b->conv1());
      add(b->conv2());
    }
  }
  return convs;
}

/// Direct-equivalent MACs of the planned convolutions at the session batch.
double planned_macs(Model& m) {
  double macs = 0.0;
  for (lowino::ConvLayer* c : planned_convs(m.model)) {
    macs += c->conv_desc(m.session->batch()).direct_macs();
  }
  return macs;
}

}  // namespace

void run_zoo(const RunArgs& args, Result& result) {
  ThreadPool pool(nproc());
  Zoo z = make_zoo(args, pool);
  const double setup_s = compile_all(z, nullptr);
  for (const Model& m : z.models) {
    std::fprintf(stderr, "%s: %s", m.name.c_str(), m.session->plan().summary().c_str());
  }
  round_robin(z, 0.0, 2, result, nullptr, /*record=*/false);  // warm-up, checked
  round_robin(z, args.seconds, 3, result, nullptr, /*record=*/true);

  // Bounded timings use the 10th percentile, as in table2-layers.
  std::vector<double> p10, gops;
  for (Model& m : z.models) {
    const double med = median(m.ms);
    const Quantile tl = tail(m.ms);
    p10.push_back(quantile(m.ms, 0.1));
    gops.push_back(2.0 * planned_macs(m) / p10.back() / 1e6);
    result.info(m.name + "_p10_ms", p10.back(), "ms");
    result.info(m.name + "_p50_ms", med, "ms");
    result.info(m.name + "_p99_ms", tl.value, "ms");
    result.info(m.name + "_tail_q", tl.q, "1");
    result.info(m.name + "_runs", static_cast<double>(tl.n), "count");
  }
  result.metric("setup_s", setup_s, "s");
  result.metric("p10_ms", geomean(p10), "ms");
  result.metric("gops", geomean(gops), "GOPS");
}

double probe_zoo(const RunArgs& args, double seconds, TraceSession& trace, Result& result,
                 bool overhead) {
  ThreadPool pool(nproc());
  Zoo z = make_zoo(args, pool);
  const std::size_t threads = pool.num_threads();

  trace.enable(true);
  compile_all(z, trace.active());
  round_robin(z, 0.0, 1, result, trace.active(), false);  // warm-up, checked
  const double per_model = 0.45 * seconds / static_cast<double>(z.models.size());
  for (Model& m : z.models) {
    const lowino::SessionPlan& plan = m.session->plan();
    trace.notes.push_back(m.name + ": " + plan.summary());
    const std::string p = "session." + m.name;
    std::size_t u8_edges = 0, misses = 0;
    for (const auto& c : plan.convs) {
      u8_edges += (c.in_dtype == lowino::DType::kU8) + (c.out_dtype == lowino::DType::kU8);
      misses += c.met_envelope ? 0 : 1;
    }
    result.info(p + ".compile_s", m.compile_s, "s");
    result.info(p + ".ops", static_cast<double>(m.session->op_count()), "count");
    result.info(p + ".arena_mb", static_cast<double>(plan.arena_bytes) / (1024.0 * 1024.0), "MB");
    result.info(p + ".u8_edges", static_cast<double>(u8_edges), "count");
    result.info(p + ".envelope_misses", static_cast<double>(misses), "count");

    // Traced runs of this model alone: kServe self time and nested stages.
    Tensor<float> out;
    lowino::profiler_reset();
    std::size_t runs = 0;
    const auto t0 = Clock::now();
    while (seconds_since(t0) < per_model || runs < 3) {
      run_once(m, runs % m.inputs.size(), out, result, trace.active(), runs);
      ++runs;
    }
    const double wall_s = seconds_since(t0);
    const auto totals = lowino::profiler_stage_totals();
    const double n = static_cast<double>(runs);
    const double wino = stage_s(totals, lowino::ProfileStage::kInputTransform) +
                        stage_s(totals, lowino::ProfileStage::kGemm) +
                        stage_s(totals, lowino::ProfileStage::kOutputTransform);
    const double post = stage_s(totals, lowino::ProfileStage::kPostOps);
    const double serve = stage_s(totals, lowino::ProfileStage::kServe);
    // Means per run. The stages run on every pool thread, so their busy time
    // over the pool size is their share of the caller's wall time. kGemm also
    // counts the int8 GEMM of the int8_1x1 engine.
    const double wino_wall = wino / static_cast<double>(threads);
    result.info(p + ".run_ms", 1e3 * wall_s / n, "ms");
    result.info(p + ".serve_self_ms", 1e3 * (serve - wino_wall - post) / n, "ms");
    result.info(p + ".winograd_ms", 1e3 * wino_wall / n, "ms");
    result.info("parallel." + m.name + ".busy_frac",
                wino / (wall_s * static_cast<double>(threads)), "1");
  }
  trace.enable(false);

  // Standalone ConvEngine::run of each planned convolution with the engine
  // the plan chose (FP32 in and out, no fused epilogue): the gap to the
  // session time is the glue cost.
  for (Model& m : z.models) {
    const std::vector<lowino::ConvLayer*> convs = planned_convs(m.model);
    const lowino::SessionPlan& plan = m.session->plan();
    if (convs.size() != plan.convs.size()) {
      throw std::runtime_error(m.name + ": plan and model disagree on the conv count");
    }
    for (std::size_t i = 0; i < convs.size(); ++i) {
      const lowino::ConvDesc desc = convs[i]->conv_desc(m.session->batch());
      if (desc.to_string() != plan.convs[i].desc) {
        throw std::runtime_error(m.name + ": plan conv " + std::to_string(i) +
                                 " does not match the model");
      }
      auto engine = lowino::make_conv_engine(plan.convs[i].engine, desc);
      const Tensor<float> in = random_tensor(
          {desc.batch, desc.in_channels, desc.height, desc.width},
          derive_seed(args.seed, "zoo.engine." + m.name + std::to_string(i)));
      std::vector<float> out(desc.batch * desc.out_channels * desc.out_height() *
                             desc.out_width());
      if (lowino::engine_caps(plan.convs[i].engine, desc).quantized) {
        engine->calibrate(in.span());
        engine->finalize_calibration();
      }
      engine->set_filters(convs[i]->weights(), convs[i]->bias());
      const double ms = 1e3 * time_for([&] { engine->run(in.span(), out, &pool); }, 0.01 * seconds);
      result.info("engine." + m.name + ".conv" + std::to_string(i) + ".ms", ms, "ms");
    }
  }

  // The fastest uniform session: every candidate forced on every conv.
  for (Model& m : z.models) {
    double best = 0.0;
    for (const EngineKind kind : kCandidates) {
      lowino::PlanOptions forced = z.options;
      forced.forced_engine = kind;
      std::optional<InferenceSession> s;
      try {
        s.emplace(InferenceSession::compile(m.model, z.calib, forced));
      } catch (const std::invalid_argument&) {
        continue;  // the candidate cannot run some conv of this model
      }
      Tensor<float> out;
      const double ms = 1e3 * time_for([&] { s->run(m.inputs[0], out); }, 0.01 * seconds);
      if (best == 0.0 || ms < best) best = ms;
    }
    // No single candidate covers MiniMobileNet (depthwise + 1x1 layers).
    if (best > 0.0) result.info("session." + m.name + ".best_uniform_ms", best, "ms");
  }

  if (!overhead) return 0.0;
  // Alternate untraced and traced runs of the same (model, input) pair.
  std::vector<double> ratios;
  Tensor<float> out;
  const auto o0 = Clock::now();
  for (std::uint64_t r = 0; seconds_since(o0) < 0.3 * seconds || ratios.size() < 30; ++r) {
    Model& m = z.models[r % z.models.size()];
    const std::size_t i = (r / z.models.size()) % m.inputs.size();
    const double off = run_once(m, i, out, result, nullptr, r);
    trace.enable(true);
    const double on = run_once(m, i, out, result, trace.active(), r);
    trace.enable(false);
    ratios.push_back(on / off);
  }
  return median(ratios) - 1.0;
}

}  // namespace perfbench
