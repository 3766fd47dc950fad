#include "serve/session.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/fault.h"
#include "common/timer.h"
#include "gemm/fp32_gemm.h"
#include "parallel/thread_pool.h"
#include "profile/profiler.h"
#include "quant/calibration.h"
#include "quant/histogram.h"
#include "quant/quantize.h"

namespace lowino {

namespace {

/// Default shoot-out candidates: the INT8 engines the paper evaluates, plus
/// the F(6x6,3x3) extension. FP32 kinds are reachable via forced_engine or an
/// explicit candidate list.
constexpr EngineKind kDefaultCandidates[] = {
    EngineKind::kInt8Direct,
    EngineKind::kLoWinoF2,
    EngineKind::kLoWinoF4,
    EngineKind::kLoWinoF6,
    EngineKind::kInt8Conv1x1,
    EngineKind::kInt8Depthwise,
};

/// Plan-file / wisdom token for a fused epilogue ("none" never serializes —
/// unfused conv lines stay byte-identical to the v1 format).
const char* post_ops_token(bool fuse_relu, bool fuse_sum) {
  if (fuse_sum && fuse_relu) return "sum+relu";
  if (fuse_sum) return "sum";
  if (fuse_relu) return "relu";
  return "none";
}

/// Parses a "post=<token>" conv-line field. False on anything malformed.
bool parse_post_token(const std::string& field, bool& fuse_relu, bool& fuse_sum) {
  if (field.rfind("post=", 0) != 0) return false;
  const std::string tok = field.substr(5);
  for (const bool relu : {false, true}) {
    for (const bool sum : {false, true}) {
      if (tok == post_ops_token(relu, sum)) {
        fuse_relu = relu;
        fuse_sum = sum;
        return true;
      }
    }
  }
  return false;
}

/// Parses a "dtype=<in>:<out>" conv-line field. False on anything malformed
/// (missing colon, unknown dtype token, trailing garbage after the pair).
bool parse_dtype_token(const std::string& field, DType& in_dtype, DType& out_dtype) {
  if (field.rfind("dtype=", 0) != 0) return false;
  const std::string tok = field.substr(6);
  const std::size_t colon = tok.find(':');
  if (colon == std::string::npos) return false;
  const std::optional<DType> in = dtype_from_string(tok.substr(0, colon));
  const std::optional<DType> out = dtype_from_string(tok.substr(colon + 1));
  if (!in || !out) return false;
  in_dtype = *in;
  out_dtype = *out;
  return true;
}

std::string plan_wisdom_key(const std::string& desc_str, bool fuse_relu, bool fuse_sum) {
  std::string key = "plan-engine " + desc_str;
  // Fused and unfused instances of the same shape are different planning
  // problems (the epilogue changes the measured latency ranking); unfused
  // keys stay unchanged so existing wisdom files keep hitting.
  if (fuse_relu || fuse_sum) {
    key += std::string(" post=") + post_ops_token(fuse_relu, fuse_sum);
  }
  return key;
}

/// SNR values are clamped before they enter a plan record: an FP32 candidate
/// reproduces the reference bit-for-bit and quantization_error() then reports
/// +inf dB, which would not round-trip through the text format.
double clamp_snr(double snr_db) { return std::min(snr_db, 999.0); }

/// Hand-off quantization for one u8 activation edge, chosen deterministically
/// from the plan-time FP32 reference tensor: the KL-calibrated scale first,
/// falling back to the plain abs-max scale when KL over-clips below the
/// envelope. `met` reports whether the chosen scale reaches `min_snr_db` —
/// compile demotes the edge to FP32 on a miss; replay keeps the plan's
/// recorded dtype (the procedure is deterministic for a given calibration
/// input, so a replayed session is bit-identical to the session it came from).
struct EdgeCalib {
  QuantParams qp;
  double snr_db = 0.0;
  bool met = false;
};

EdgeCalib calibrate_edge(std::span<const float> ref, double min_snr_db) {
  Histogram hist;
  hist.collect(ref);
  std::vector<std::uint8_t> q(ref.size());
  std::vector<float> dq(ref.size());
  const auto snr_of = [&](const QuantParams& qp) {
    quantize_u8_shift128(ref, qp.scale, q);
    dequantize_u8_shift128(q, qp.inv_scale, dq);
    return clamp_snr(quantization_error(ref, dq).signal_to_noise_db);
  };
  EdgeCalib ec;
  ec.qp = calibrate_params(hist);
  ec.snr_db = snr_of(ec.qp);
  ec.met = ec.snr_db >= min_snr_db;
  if (!ec.met) {
    const QuantParams full = QuantParams::from_threshold(hist.max_abs_seen());
    const double full_snr = snr_of(full);
    if (full_snr > ec.snr_db) {
      ec.qp = full;
      ec.snr_db = full_snr;
      ec.met = full_snr >= min_snr_db;
    }
  }
  return ec;
}

}  // namespace

// ---------------------------------------------------------------------------
// SessionPlan

std::string SessionPlan::summary() const {
  std::ostringstream os;
  os << "inference session plan: batch " << batch << ", " << convs.size()
     << " planned convolution(s)\n";
  std::size_t u8_edges = 0;
  for (const ConvChoice& c : convs) {
    os << "  op " << c.op_index << ": " << engine_token(c.engine) << "  " << c.layer << " ["
       << c.desc << "]  snr " << c.snr_db << " dB";
    if (c.seconds > 0.0) os << ", " << c.seconds * 1e3 << " ms";
    if (c.fuse_relu || c.fuse_sum) {
      os << "  (fused " << post_ops_token(c.fuse_relu, c.fuse_sum) << ')';
    }
    if (c.in_dtype != DType::kF32 || c.out_dtype != DType::kF32) {
      os << "  (dtype " << dtype_token(c.in_dtype) << ':' << dtype_token(c.out_dtype) << ')';
      u8_edges += (c.in_dtype == DType::kU8 ? 1 : 0) + (c.out_dtype == DType::kU8 ? 1 : 0);
    }
    if (!c.met_envelope) os << "  (below accuracy envelope; best-effort pick)";
    os << '\n';
  }
  if (u8_edges > 0) os << "  u8 hand-off: " << u8_edges << " conv edge(s)\n";
  const double saved =
      naive_bytes == 0
          ? 0.0
          : 100.0 * (1.0 - static_cast<double>(arena_bytes) / static_cast<double>(naive_bytes));
  os << "  arena " << arena_bytes << " B vs naive " << naive_bytes << " B (" << saved
     << "% saved)\n";
  return os.str();
}

std::string SessionPlan::serialize() const {
  std::ostringstream os;
  os << "# lowino-plan v3: conv = op_index engine snr_db seconds met [post=ops] "
        "[dtype=in:out] | layer | desc\n";
  os.precision(9);
  os << "batch = " << batch << '\n';
  os << "arena = " << arena_bytes << '\n';
  os << "naive = " << naive_bytes << '\n';
  for (const ConvChoice& c : convs) {
    os << "conv = " << c.op_index << ' ' << engine_token(c.engine) << ' ' << c.snr_db << ' '
       << c.seconds << ' ' << (c.met_envelope ? 1 : 0);
    // Unfused lines omit the token and stay byte-identical to the v1 format.
    if (c.fuse_relu || c.fuse_sum) {
      os << " post=" << post_ops_token(c.fuse_relu, c.fuse_sum);
    }
    // All-FP32 lines omit the dtype token and stay v2-byte-identical.
    if (c.in_dtype != DType::kF32 || c.out_dtype != DType::kF32) {
      os << " dtype=" << dtype_token(c.in_dtype) << ':' << dtype_token(c.out_dtype);
    }
    os << " | " << c.layer << " | " << c.desc << '\n';
  }
  return os.str();
}

std::optional<SessionPlan> SessionPlan::deserialize(const std::string& text) {
  SessionPlan plan;
  bool saw_batch = false, saw_arena = false, saw_naive = false;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find(" = ");
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = line.substr(0, eq);
    const std::string payload = line.substr(eq + 3);
    if (key == "batch" || key == "arena" || key == "naive") {
      std::istringstream vals(payload);
      long long v = 0;
      std::string extra;
      if (!(vals >> v) || v < 0 || (vals >> extra)) return std::nullopt;
      if (key == "batch") plan.batch = static_cast<std::size_t>(v), saw_batch = true;
      if (key == "arena") plan.arena_bytes = static_cast<std::size_t>(v), saw_arena = true;
      if (key == "naive") plan.naive_bytes = static_cast<std::size_t>(v), saw_naive = true;
    } else if (key == "conv") {
      // Numeric head up to the first " | ", then "layer | desc".
      const std::size_t bar = payload.find(" | ");
      if (bar == std::string::npos) return std::nullopt;
      ConvChoice c;
      std::istringstream head(payload.substr(0, bar));
      long long idx = 0;
      std::string token;
      int met = -1;
      std::string extra;
      if (!(head >> idx >> token >> c.snr_db >> c.seconds >> met) || idx < 0 ||
          (met != 0 && met != 1)) {
        return std::nullopt;
      }
      // Optional v2 "post=" token, then optional v3 "dtype=" token (in that
      // order); anything else trailing is corruption.
      std::string field;
      if (head >> field) {
        if (field.rfind("post=", 0) == 0) {
          if (!parse_post_token(field, c.fuse_relu, c.fuse_sum)) return std::nullopt;
          if (!(head >> field)) field.clear();
        }
        if (!field.empty()) {
          if (!parse_dtype_token(field, c.in_dtype, c.out_dtype) || (head >> extra)) {
            return std::nullopt;
          }
        }
      }
      const std::optional<EngineKind> kind = engine_kind_from_string(token);
      if (!kind) return std::nullopt;
      c.op_index = static_cast<std::size_t>(idx);
      c.engine = *kind;
      c.met_envelope = met == 1;
      const std::string tail = payload.substr(bar + 3);
      const std::size_t bar2 = tail.find(" | ");
      if (bar2 == std::string::npos) return std::nullopt;
      c.layer = tail.substr(0, bar2);
      c.desc = tail.substr(bar2 + 3);
      if (c.layer.empty() || c.desc.empty()) return std::nullopt;
      plan.convs.push_back(std::move(c));
    } else {
      return std::nullopt;  // unknown key: corrupt or newer format
    }
  }
  if (!saw_batch || !saw_arena || !saw_naive || plan.batch == 0) return std::nullopt;
  return plan;
}

bool SessionPlan::save(const std::string& path) const {
  // Crash-safe: write the whole plan to a sibling temp file, then rename it
  // over the target. A failure (or injected fault) mid-save leaves any
  // previous file untouched — a reader never observes a torn plan.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) return false;
    out << serialize();
    if (!out.flush()) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  try {
    maybe_inject_fault(FaultSite::kPlanLoad);
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<SessionPlan> SessionPlan::load(const std::string& path) {
  maybe_inject_fault(FaultSite::kPlanLoad);
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return deserialize(buf.str());
}

// ---------------------------------------------------------------------------
// Lowering

namespace {

[[noreturn]] void lower_fail(const std::string& what) {
  throw std::invalid_argument("InferenceSession: " + what);
}

}  // namespace

InferenceSession InferenceSession::compile(SequentialModel& model,
                                           const Tensor<float>& calib_input,
                                           const PlanOptions& options) {
  if (model.layer_count() == 0) lower_fail("model has no layers");
  if (calib_input.rank() != 4) lower_fail("calibration input must be rank-4 NCHW");
  const std::size_t batch = calib_input.dim(0);
  if (batch == 0) lower_fail("calibration batch must be non-empty");

  InferenceSession s;
  s.pool_ = options.pool != nullptr ? options.pool : &ThreadPool::global();
  s.plan_.batch = batch;

  // -- Lower the model to the flat op list, tracking value liveness. --------
  const auto new_value = [&s](std::vector<std::size_t> shape, std::size_t def) {
    Value v;
    v.elems = 1;
    for (std::size_t d : shape) v.elems *= d;
    v.shape = std::move(shape);
    v.def_step = def;
    v.last_use = def;
    s.values_.push_back(std::move(v));
    return s.values_.size() - 1;
  };
  const auto push_op = [&s](Op op) {
    const std::size_t step = s.ops_.size();
    s.values_[op.in0].last_use = step;
    if (op.kind == Op::Kind::kAddRelu) s.values_[op.in1].last_use = step;
    s.ops_.push_back(std::move(op));
  };
  const auto lower_conv = [&](ConvLayer& conv, std::size_t in_val) {
    const Value& vi = s.values_[in_val];
    const ConvDesc d = conv.conv_desc(batch);
    if (vi.elems != batch * conv.in_channels() * conv.spatial() * conv.spatial()) {
      lower_fail("shape mismatch feeding " + conv.name());
    }
    const std::size_t out_val = new_value(
        {batch, conv.out_channels(), d.out_height(), d.out_width()}, s.ops_.size());
    Op op;
    op.kind = conv.quantizable() ? Op::Kind::kConvEngine : Op::Kind::kConvFp32;
    op.in0 = in_val;
    op.out = out_val;
    op.conv = &conv;
    op.label = conv.name();
    if (!conv.quantizable()) {
      // Non-quantizable convs (FP32 stems) skip selection: they run an owned
      // kFp32Direct engine, which takes ungrouped shapes only.
      if (!engine_caps(EngineKind::kFp32Direct, d).supports) {
        lower_fail("non-quantizable conv " + conv.name() + " [" + d.to_string() +
                   "] has no FP32 engine: " + engine_token(EngineKind::kFp32Direct) +
                   " runs ungrouped convolutions only");
      }
      op.engine = make_conv_engine(EngineKind::kFp32Direct, d);
      op.engine->set_filters(conv.weights(), conv.bias());
    }
    push_op(std::move(op));
    return out_val;
  };

  std::size_t cur = new_value(calib_input.shape(), 0);
  s.values_[cur].external = true;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    Layer& layer = model.layer(i);
    if (auto* conv = dynamic_cast<ConvLayer*>(&layer)) {
      cur = lower_conv(*conv, cur);
    } else if (dynamic_cast<ReluLayer*>(&layer) != nullptr) {
      const std::size_t out_val = new_value(s.values_[cur].shape, s.ops_.size());
      Op op;
      op.kind = Op::Kind::kRelu;
      op.in0 = cur;
      op.out = out_val;
      op.label = "relu";
      push_op(std::move(op));
      cur = out_val;
    } else if (auto* mp = dynamic_cast<MaxPoolLayer*>(&layer)) {
      const std::size_t hw = mp->spatial();
      if (s.values_[cur].elems != batch * mp->channels() * hw * hw) {
        lower_fail("shape mismatch feeding maxpool");
      }
      const std::size_t out_val =
          new_value({batch, mp->channels(), hw / 2, hw / 2}, s.ops_.size());
      Op op;
      op.kind = Op::Kind::kMaxPool;
      op.in0 = cur;
      op.out = out_val;
      op.channels = mp->channels();
      op.hw = hw;
      op.label = "maxpool2x2";
      push_op(std::move(op));
      cur = out_val;
    } else if (auto* dense = dynamic_cast<DenseLayer*>(&layer)) {
      if (s.values_[cur].elems != batch * dense->in_features()) {
        lower_fail("shape mismatch feeding " + dense->name());
      }
      const std::size_t out_val = new_value({batch, dense->out_features()}, s.ops_.size());
      Op op;
      op.kind = Op::Kind::kDense;
      op.in0 = cur;
      op.out = out_val;
      op.dense = dense;
      op.label = dense->name();
      push_op(std::move(op));
      cur = out_val;
    } else if (auto* res = dynamic_cast<ResidualBlock*>(&layer)) {
      // Flattened so the skip connection is a real live range: the block
      // input stays live across conv1/relu/conv2 until the final add.
      const std::size_t x = cur;
      const std::size_t mid = lower_conv(res->conv1(), x);
      const std::size_t mid_act = new_value(s.values_[mid].shape, s.ops_.size());
      Op relu_op;
      relu_op.kind = Op::Kind::kRelu;
      relu_op.in0 = mid;
      relu_op.out = mid_act;
      relu_op.label = "relu(residual)";
      push_op(std::move(relu_op));
      const std::size_t f_out = lower_conv(res->conv2(), mid_act);
      const std::size_t out_val = new_value(s.values_[x].shape, s.ops_.size());
      Op add_op;
      add_op.kind = Op::Kind::kAddRelu;
      add_op.in0 = x;
      add_op.in1 = f_out;
      add_op.out = out_val;
      add_op.label = "add+relu(residual)";
      push_op(std::move(add_op));
      cur = out_val;
    } else {
      lower_fail("unsupported layer in serving path: " + layer.name());
    }
  }
  s.output_value_ = cur;
  s.values_[cur].external = true;

  // -- Post-op fusion pass: fold conv->relu and conv->add+relu chains into --
  // -- the convolution's single output pass (the PostOps epilogue). ---------
  // A chain fuses when (a) the kill-switch is on, (b) the conv's output has
  // exactly one consumer and it is the immediately following element-wise op,
  // and (c) the engine that will execute the conv can carry the epilogue —
  // kConvFp32 asks its kFp32Direct engine; kConvEngine consults
  // engine_caps(kind, desc) for the forced/replayed kind or requires at
  // least one shoot-out candidate that both supports the shape and the
  // epilogue (the selection loop then skips declining candidates for fused
  // ops — the graceful fallback). Fusion
  // deletes the element-wise pass *and* orphans its input value, shortening
  // live ranges so the arena planner's peak drops (asserted in test_serve).
  if (post_op_fusion_enabled()) {
    const std::span<const EngineKind> cands =
        options.candidates.empty() ? std::span<const EngineKind>(kDefaultCandidates)
                                   : std::span<const EngineKind>(options.candidates);
    const auto engine_conv_can_fuse = [&](const Op& op, std::size_t conv_ordinal) {
      const ConvDesc desc = op.conv->conv_desc(batch);
      const auto can = [&](EngineKind kind) {
        const EngineCaps caps = engine_caps(kind, desc);
        return caps.post_ops && caps.supports;
      };
      if (options.forced_engine) return can(*options.forced_engine);
      if (options.reuse != nullptr) {
        return conv_ordinal < options.reuse->convs.size() &&
               can(options.reuse->convs[conv_ordinal].engine);
      }
      return std::any_of(cands.begin(), cands.end(), can);
    };

    std::vector<std::size_t> uses(s.values_.size(), 0);
    for (const Op& op : s.ops_) {
      ++uses[op.in0];
      if (op.kind == Op::Kind::kAddRelu) ++uses[op.in1];
    }

    std::vector<Op> fused;
    fused.reserve(s.ops_.size());
    std::size_t conv_ordinal = 0;  // kConvEngine count, for reuse-plan lookup
    for (std::size_t i = 0; i < s.ops_.size(); ++i) {
      Op op = std::move(s.ops_[i]);
      const bool can_fuse =
          op.kind == Op::Kind::kConvFp32
              ? op.engine->supports_post_ops()
              : op.kind == Op::Kind::kConvEngine && engine_conv_can_fuse(op, conv_ordinal);
      if (op.kind == Op::Kind::kConvEngine) ++conv_ordinal;
      if (can_fuse && i + 1 < s.ops_.size() && uses[op.out] == 1) {
        const Op& next = s.ops_[i + 1];
        if (next.kind == Op::Kind::kRelu && next.in0 == op.out) {
          op.fuse_relu = true;
          op.out = next.out;
          op.label += "+relu";
          ++i;  // the relu pass is gone
        } else if (next.kind == Op::Kind::kAddRelu &&
                   (next.in0 == op.out || next.in1 == op.out)) {
          // The residual (the *other* add input) is defined before this conv
          // (ops are in topological order), so reading it from the epilogue
          // is safe.
          op.fuse_relu = true;
          op.fuse_sum = true;
          op.in1 = next.in0 == op.out ? next.in1 : next.in0;
          op.out = next.out;
          op.label += "+sum+relu";
          ++i;  // the add+relu pass is gone
        }
      }
      fused.push_back(std::move(op));
    }
    s.ops_ = std::move(fused);
  }

  // -- Recompute liveness over the (possibly fused) op list. Values orphaned
  // -- by fusion (a swallowed element-wise op's former input) get no arena
  // -- request at all. ------------------------------------------------------
  std::vector<bool> value_live(s.values_.size(), false);
  value_live[0] = true;
  for (std::size_t step = 0; step < s.ops_.size(); ++step) {
    const Op& op = s.ops_[step];
    s.values_[op.out].def_step = step;
    s.values_[op.out].last_use = step;
    value_live[op.out] = true;
    s.values_[op.in0].last_use = step;
    value_live[op.in0] = true;
    if (op.kind == Op::Kind::kAddRelu || op.fuse_sum) {
      s.values_[op.in1].last_use = step;
      value_live[op.in1] = true;
    }
  }

  // -- Plan-time FP32 pass: capture every conv's input distribution and -----
  // -- reference output (the accuracy envelope's ground truth). -------------
  std::vector<Tensor<float>> vals(s.values_.size());
  vals[0] = calib_input;
  for (Op& op : s.ops_) {
    vals[op.out].reshape(s.values_[op.out].shape);
    if (op.kind == Op::Kind::kConvEngine) {
      op.conv->forward_fp32(vals[op.in0].span(), vals[op.out].span(), batch);
      // The fused reference includes the epilogue (identical float op
      // sequence to the engines' in-register version, hence bit-comparable).
      const std::span<float> out = vals[op.out].span();
      if (op.fuse_sum) {
        const float* res = vals[op.in1].data();
        for (std::size_t i = 0; i < out.size(); ++i) out[i] += res[i];
      }
      if (op.fuse_relu) {
        for (float& v : out) v = std::max(0.0f, v);
      }
    } else {
      const float* in1 =
          op.kind == Op::Kind::kAddRelu || op.fuse_sum ? vals[op.in1].data() : nullptr;
      s.execute_op(op, vals[op.in0].data(), in1, vals[op.out].data());
    }
  }

  // -- Per-convolution engine selection. ------------------------------------
  const std::size_t reuse_convs =
      (!options.forced_engine && options.reuse != nullptr) ? options.reuse->convs.size() : 0;
  if (options.reuse != nullptr && !options.forced_engine &&
      options.reuse->batch != batch) {
    lower_fail("reused plan was compiled for batch " + std::to_string(options.reuse->batch));
  }
  Tensor<float> actual;  // candidate output scratch
  std::size_t conv_idx = 0;
  for (std::size_t i = 0; i < s.ops_.size(); ++i) {
    Op& op = s.ops_[i];
    if (op.kind != Op::Kind::kConvEngine) continue;
    const ConvDesc desc = op.conv->conv_desc(batch);
    const std::string desc_str = desc.to_string();
    const Tensor<float>& plan_in = vals[op.in0];
    const Tensor<float>& ref_out = vals[op.out];
    // Fused ops are measured fused: the epilogue changes both the latency
    // ranking and the reference the SNR compares against.
    const PostOps post{op.fuse_relu, op.fuse_sum ? vals[op.in1].data() : nullptr};

    // Builds + calibrates one candidate; nullptr when make_conv_engine
    // rejects the (kind, shape) pair — that is the eligibility filter.
    const auto build = [&](EngineKind kind) -> std::unique_ptr<ConvEngine> {
      std::unique_ptr<ConvEngine> e;
      try {
        e = make_conv_engine(kind, desc);
      } catch (const std::invalid_argument&) {
        return nullptr;
      }
      if (engine_caps(kind, desc).quantized) {
        e->calibrate(plan_in.span());
        e->finalize_calibration();
      }
      e->set_filters(op.conv->weights(), op.conv->bias());
      return e;
    };

    SessionPlan::ConvChoice choice;
    choice.op_index = i;
    choice.layer = op.label;
    choice.desc = desc_str;
    actual.reshape(s.values_[op.out].shape);

    if (options.forced_engine) {
      op.engine = build(*options.forced_engine);
      if (op.engine == nullptr) {
        lower_fail(std::string("forced engine ") + engine_token(*options.forced_engine) +
                   " is not eligible for " + desc_str);
      }
      choice.engine = *options.forced_engine;
    } else if (options.reuse != nullptr) {
      if (conv_idx >= reuse_convs) lower_fail("reused plan has too few convolutions");
      const SessionPlan::ConvChoice& rc = options.reuse->convs[conv_idx];
      if (rc.desc != desc_str) {
        lower_fail("reused plan mismatch at " + op.label + ": plan has [" + rc.desc +
                   "], model needs [" + desc_str + "]");
      }
      op.engine = build(rc.engine);
      if (op.engine == nullptr) {
        lower_fail(std::string("reused plan engine ") + engine_token(rc.engine) +
                   " is not eligible for " + desc_str);
      }
      choice.engine = rc.engine;
      choice.seconds = rc.seconds;
    } else {
      std::optional<EngineKind> hint;
      if (options.wisdom != nullptr) {
        if (const auto token = options.wisdom->get_string(
                plan_wisdom_key(desc_str, op.fuse_relu, op.fuse_sum))) {
          hint = engine_kind_from_string(*token);
        }
      }
      // A hinted engine that cannot carry this op's shape or fused epilogue
      // is as unusable as an unbuildable one: fall through to the shoot-out.
      if (hint) {
        const EngineCaps hint_caps = engine_caps(*hint, desc);
        if (!hint_caps.supports || (!post.none() && !hint_caps.post_ops)) hint.reset();
      }
      if (hint) {
        op.engine = build(*hint);  // unbuildable hint falls through to shoot-out
        if (op.engine != nullptr) choice.engine = *hint;
      }
      if (op.engine == nullptr) {
        // Measured shoot-out under the accuracy envelope.
        const std::span<const EngineKind> cands =
            options.candidates.empty() ? std::span<const EngineKind>(kDefaultCandidates)
                                       : std::span<const EngineKind>(options.candidates);
        std::unique_ptr<ConvEngine> best_engine;
        SessionPlan::ConvChoice best, fallback;
        std::unique_ptr<ConvEngine> fallback_engine;
        fallback.snr_db = -1e300;
        bool any_pass = false;
        for (const EngineKind kind : cands) {
          // Capability gate before construction: skip candidates that cannot
          // handle this shape, and for fused ops restrict the shoot-out to
          // post-op-capable engines (the fusion pass guaranteed at least one
          // candidate qualifies).
          const EngineCaps caps = engine_caps(kind, desc);
          if (!caps.supports) continue;
          if (!post.none() && !caps.post_ops) continue;
          auto e = build(kind);
          if (e == nullptr) continue;
          e->run(plan_in.span(), actual.span(), s.pool_, post);
          const double snr =
              clamp_snr(quantization_error(ref_out.span(), actual.span()).signal_to_noise_db);
          const double sec =
              time_it([&] { e->run(plan_in.span(), actual.span(), s.pool_, post); },
                      /*warmup=*/1, /*min_iters=*/2, /*max_iters=*/50,
                      options.seconds_per_candidate)
                  .median;
          const bool meets = !caps.quantized || snr >= options.min_snr_db;
          if (meets && (!any_pass || sec < best.seconds)) {
            any_pass = true;
            best.engine = kind;
            best.snr_db = snr;
            best.seconds = sec;
            best_engine = std::move(e);
          } else if (!meets && snr > fallback.snr_db) {
            fallback.engine = kind;
            fallback.snr_db = snr;
            fallback.seconds = sec;
            fallback_engine = std::move(e);
          }
        }
        if (!any_pass && fallback_engine == nullptr) {
          lower_fail("no engine candidate is eligible for " + desc_str);
        }
        if (any_pass) {
          op.engine = std::move(best_engine);
          choice.engine = best.engine;
          choice.snr_db = best.snr_db;
          choice.seconds = best.seconds;
          choice.met_envelope = true;
        } else {
          op.engine = std::move(fallback_engine);
          choice.engine = fallback.engine;
          choice.snr_db = fallback.snr_db;
          choice.seconds = fallback.seconds;
          choice.met_envelope = false;
        }
      }
    }

    if (choice.snr_db == 0.0) {
      // Forced / replayed / wisdom-hinted engines skip the shoot-out but
      // still get one accuracy measurement so the plan record is honest.
      op.engine->run(plan_in.span(), actual.span(), s.pool_, post);
      choice.snr_db =
          clamp_snr(quantization_error(ref_out.span(), actual.span()).signal_to_noise_db);
      choice.met_envelope = !engine_caps(choice.engine, desc).quantized ||
                            choice.snr_db >= options.min_snr_db;
    }
    choice.fuse_relu = op.fuse_relu;
    choice.fuse_sum = op.fuse_sum;
    if (options.wisdom != nullptr) {
      options.wisdom->put_string(plan_wisdom_key(desc_str, op.fuse_relu, op.fuse_sum),
                                 engine_token(choice.engine));
    }
    s.plan_.convs.push_back(std::move(choice));
    ++conv_idx;
  }
  if (reuse_convs != 0 && conv_idx != reuse_convs) {
    lower_fail("reused plan has more convolutions than the model");
  }

  // -- Type-assignment pass: pick the u8 activation hand-off per edge. ------
  // Fixpoint over the value graph: a value is a u8 candidate when its
  // producer can emit u8 (a hand-off-capable conv engine, or a ReLU/maxpool
  // whose own input is u8 — both passthroughs are exact on the +128 encoding
  // because quantization is monotone with q(0) = 128) and every consumer can
  // read u8 (a capable conv's input or fused residual, or a coupled
  // passthrough). Each surviving conv-output edge is then KL-calibrated
  // against the plan-time FP32 reference and must meet the same
  // options.min_snr_db envelope as engine selection; a miss demotes the edge
  // to FP32 and re-runs the fixpoint (demotion cascades through passthrough
  // coupling). Passthrough outputs inherit their input's QuantParams, so a
  // whole passthrough segment shares one scale and the byte-domain
  // ReLU/maxpool stay exact. Replay skips the SNR gate: the plan's recorded
  // dtype tokens are authoritative and only validated for structural
  // consistency. See DESIGN.md decision 13.
  const bool replay_dtypes = options.reuse != nullptr && !options.forced_engine;
  if (u8_handoff_enabled()) {
    std::vector<char> want(s.values_.size(), 0);
    if (replay_dtypes) {
      // Reconstruct from the plan: conv outputs take their recorded token;
      // passthrough outputs inherit (ops are in topological order).
      std::size_t ordinal = 0;
      for (const Op& op : s.ops_) {
        if (op.kind == Op::Kind::kConvEngine) {
          if (options.reuse->convs[ordinal++].out_dtype == DType::kU8) want[op.out] = 1;
        } else if (op.kind == Op::Kind::kRelu || op.kind == Op::Kind::kMaxPool) {
          want[op.out] = want[op.in0];
        }
      }
      if (want[s.output_value_] != 0) {
        lower_fail("reused plan assigns u8 to the external output value");
      }
      // Validate: recorded input dtypes match the reconstruction and u8
      // edges only touch hand-off-capable consumers.
      ordinal = 0;
      for (const Op& op : s.ops_) {
        const bool u8_in = want[op.in0] != 0;
        const bool u8_res = op.fuse_sum && want[op.in1] != 0;
        switch (op.kind) {
          case Op::Kind::kConvEngine: {
            const SessionPlan::ConvChoice& rc = options.reuse->convs[ordinal++];
            if (rc.in_dtype != (u8_in ? DType::kU8 : DType::kF32)) {
              lower_fail("reused plan dtype mismatch at " + op.label);
            }
            if ((u8_in || want[op.out] != 0 || u8_res) && !op.engine->supports_u8_handoff()) {
              lower_fail("reused plan assigns u8 hand-off to incapable engine " +
                         std::string(engine_token(rc.engine)) + " at " + op.label);
            }
            break;
          }
          case Op::Kind::kConvFp32:
            if (u8_in || u8_res) lower_fail("reused plan feeds u8 to an FP32 conv");
            break;
          case Op::Kind::kDense:
            if (u8_in) lower_fail("reused plan feeds u8 to a dense layer");
            break;
          case Op::Kind::kAddRelu:
            if (u8_in || want[op.in1] != 0) {
              lower_fail("reused plan feeds u8 to an unfused add");
            }
            break;
          default:
            break;
        }
      }
      // Hand-off scales re-derive deterministically from the calibration
      // input (same procedure as compile, gate outcome ignored), so a
      // replayed session is bit-identical to the one that produced the plan.
      for (const Op& op : s.ops_) {
        if (op.kind == Op::Kind::kConvEngine && want[op.out] != 0) {
          s.values_[op.out].qp = calibrate_edge(vals[op.out].span(), options.min_snr_db).qp;
        }
      }
    } else {
      // Seed: capable conv outputs, plus passthrough outputs (conditional on
      // their input — the fixpoint resolves the coupling).
      for (const Op& op : s.ops_) {
        if (s.values_[op.out].external) continue;
        if (op.kind == Op::Kind::kConvEngine && op.engine->supports_u8_handoff()) {
          want[op.out] = 1;
        } else if (op.kind == Op::Kind::kRelu || op.kind == Op::Kind::kMaxPool) {
          want[op.out] = 1;
        }
      }
      const auto run_fixpoint = [&] {
        bool changed = true;
        const auto demote = [&](std::size_t v) {
          if (want[v] != 0) {
            want[v] = 0;
            changed = true;
          }
        };
        while (changed) {
          changed = false;
          for (const Op& op : s.ops_) {
            switch (op.kind) {
              case Op::Kind::kConvEngine:
                if (!op.engine->supports_u8_handoff()) {
                  demote(op.in0);
                  if (op.fuse_sum) demote(op.in1);
                }
                break;
              case Op::Kind::kConvFp32:
                demote(op.in0);
                if (op.fuse_sum) demote(op.in1);
                break;
              case Op::Kind::kRelu:
              case Op::Kind::kMaxPool:
                // Byte-domain passthrough is all-or-nothing: input and
                // output share the dtype (and the scale).
                if (want[op.in0] != want[op.out]) {
                  demote(op.in0);
                  demote(op.out);
                }
                break;
              case Op::Kind::kDense:
                demote(op.in0);
                break;
              case Op::Kind::kAddRelu:
                demote(op.in0);
                demote(op.in1);
                break;
            }
          }
        }
      };
      // SNR-gate each surviving conv-output edge; a demotion re-runs the
      // fixpoint (monotone, so this terminates).
      std::vector<char> gated(s.values_.size(), 0);
      bool stable = false;
      while (!stable) {
        run_fixpoint();
        stable = true;
        for (const Op& op : s.ops_) {
          if (op.kind != Op::Kind::kConvEngine || want[op.out] == 0 || gated[op.out] != 0) {
            continue;
          }
          const EdgeCalib ec = calibrate_edge(vals[op.out].span(), options.min_snr_db);
          if (!ec.met) {
            want[op.out] = 0;
            stable = false;
            break;
          }
          gated[op.out] = 1;
          s.values_[op.out].qp = ec.qp;
        }
      }
    }
    // Commit: value dtypes, passthrough scale propagation (topological, so a
    // consumer conv always reads a finalized qp), engine configuration, plan
    // record.
    for (std::size_t v = 0; v < s.values_.size(); ++v) {
      if (want[v] != 0) s.values_[v].dtype = DType::kU8;
    }
    std::size_t ordinal = 0;
    for (Op& op : s.ops_) {
      if (op.kind == Op::Kind::kRelu || op.kind == Op::Kind::kMaxPool) {
        if (want[op.out] != 0) s.values_[op.out].qp = s.values_[op.in0].qp;
        continue;
      }
      if (op.kind != Op::Kind::kConvEngine) continue;
      SessionPlan::ConvChoice& choice = s.plan_.convs[ordinal++];
      if (want[op.in0] != 0) {
        op.engine->set_input_u8(s.values_[op.in0].qp);
        choice.in_dtype = DType::kU8;
      }
      if (want[op.out] != 0) {
        op.engine->set_output_u8(s.values_[op.out].qp);
        choice.out_dtype = DType::kU8;
      }
    }
  }

  // -- In-place residual reuse: a fused conv's output shares its residual's
  // -- arena slot when the conv is the residual's final consumer. Safe for
  // -- every post-op-capable engine: the direct engines read each residual
  // -- element in the same scalar iteration that overwrites it, and the
  // -- Winograd engines read the residual inside the output transform, with
  // -- the fork-join barrier before the blocked->NCHW unpack that writes the
  // -- buffer. This is what turns fusion into an arena *peak* win — the
  // -- residual pattern otherwise needs conv-input, residual and output live
  // -- at once, fused or not. Sharing requires equal byte footprints
  // -- (arena_slots_compatible): with mixed u8/FP32 dtypes an equal element
  // -- count no longer implies equal size, and an FP32 output aliasing a u8
  // -- residual's slot would overrun it. ------------------------------------
  std::vector<std::pair<std::size_t, std::size_t>> alias_pairs;  // (out, slot root)
  std::vector<bool> value_aliased(s.values_.size(), false);
  {
    std::vector<std::size_t> slot_root(s.values_.size());
    for (std::size_t v = 0; v < slot_root.size(); ++v) slot_root[v] = v;
    for (std::size_t step = 0; step < s.ops_.size(); ++step) {
      const Op& op = s.ops_[step];
      if (!op.fuse_sum) continue;
      const std::size_t res = op.in1, out = op.out;
      if (s.values_[res].external || s.values_[out].external) continue;
      if (res == op.in0 ||
          !arena_slots_compatible(s.values_[res].elems, s.values_[res].dtype,
                                  s.values_[out].elems, s.values_[out].dtype)) {
        continue;
      }
      if (s.values_[res].last_use != step) continue;  // residual read again later
      const std::size_t root = slot_root[res];
      slot_root[out] = root;
      value_aliased[out] = true;
      s.values_[root].last_use = std::max(s.values_[root].last_use, s.values_[out].last_use);
      alias_pairs.emplace_back(out, root);
    }
  }

  // -- Arena planning over the non-external values (slots sized per dtype). -
  std::vector<ArenaRequest> requests;
  std::vector<std::size_t> request_value;
  for (std::size_t v = 0; v < s.values_.size(); ++v) {
    const Value& val = s.values_[v];
    if (val.external || !value_live[v] || value_aliased[v]) continue;
    requests.push_back({val.bytes(), val.def_step, val.last_use});
    request_value.push_back(v);
  }
  const ArenaPlan arena_plan = plan_arena(requests);
  for (std::size_t j = 0; j < request_value.size(); ++j) {
    s.values_[request_value[j]].offset_bytes = arena_plan.offsets[j];
  }
  // Aliased outputs inherit their slot root's offset (pairs are in op order,
  // so a root's offset is always final by the time a dependent reads it).
  for (const auto& [out, root] : alias_pairs) {
    s.values_[out].offset_bytes = s.values_[root].offset_bytes;
  }
  s.arena_.ensure(arena_plan.peak_bytes);
  s.plan_.arena_bytes = arena_plan.peak_bytes;
  s.plan_.naive_bytes = arena_plan.naive_bytes;

  // -- Pre-warm every lazily grown buffer so steady-state runs never --------
  // -- allocate (engine workspaces, warmup output). -------------------------
  s.run(calib_input, s.warmup_out_);
  s.run(calib_input, s.warmup_out_);
  return s;
}

// ---------------------------------------------------------------------------
// Run time

const void* InferenceSession::value_in(std::size_t v, const Tensor<float>& input) const {
  if (v == 0) return input.data();
  return arena_.data() + values_[v].offset_bytes;
}

void* InferenceSession::value_out(std::size_t v, Tensor<float>& output) {
  if (v == output_value_) return output.data();
  return arena_.data() + values_[v].offset_bytes;
}

void InferenceSession::run(const Tensor<float>& input, Tensor<float>& output) {
  maybe_inject_fault(FaultSite::kSessionRun);
  if (input.shape() != values_[0].shape) {
    throw std::invalid_argument("InferenceSession::run: input shape does not match the plan");
  }
  // reshape() only when needed: re-running into the same output tensor must
  // not touch the heap (reshape copies the shape vector even when sizes
  // already match).
  if (output.shape() != values_[output_value_].shape) {
    output.reshape(values_[output_value_].shape);
  }
  for (Op& op : ops_) {
    ProfileSpan span(ProfileStage::kServe);
    const void* in0 = value_in(op.in0, input);
    const void* in1 = op.kind == Op::Kind::kAddRelu || op.fuse_sum
                          ? value_in(op.in1, input)
                          : nullptr;
    void* out = value_out(op.out, output);
    execute_op(op, in0, in1, out);
  }
}

void InferenceSession::execute_op(Op& op, const void* in0, const void* in1, void* out) {
  const Value& vi = values_[op.in0];
  const Value& vo = values_[op.out];
  switch (op.kind) {
    case Op::Kind::kConvEngine:
    case Op::Kind::kConvFp32: {
      // Injected *before* the engine touches its state: a faulted op leaves
      // the engine and every arena value exactly as a never-started op would,
      // so a run aborted here is safely retryable from the top.
      maybe_inject_fault(FaultSite::kEngineExecute);
      PostOps post;
      post.relu = op.fuse_relu;
      if (op.fuse_sum) {
        if (values_[op.in1].dtype == DType::kU8) {
          post.sum_u8 = static_cast<const std::uint8_t*>(in1);
          post.sum_u8_inv_scale = values_[op.in1].qp.inv_scale;
        } else {
          post.sum = static_cast<const float*>(in1);
        }
      }
      if (vi.dtype == DType::kU8 || vo.dtype == DType::kU8 || post.sum_u8 != nullptr) {
        // u8 hand-off on any edge: the typed entry point reads/writes the
        // arena buffers with the dtypes the compiler configured.
        op.engine->run_typed(in0, out, pool_, post);
      } else {
        // A fused epilogue rides inside the engine's output pass (attributed
        // to its output-transform / store stage).
        op.engine->run({static_cast<const float*>(in0), vi.elems},
                       {static_cast<float*>(out), vo.elems}, pool_, post);
      }
      break;
    }
    case Op::Kind::kRelu: {
      // A standalone (unfused) element-wise pass: visible as its own profile
      // stage so traces show these passes disappearing under fusion.
      ProfileSpan pspan(ProfileStage::kPostOps);
      if (vo.dtype == DType::kU8) {
        // Byte-domain passthrough: quantization is monotone with q(0) = 128,
        // so max(q, 128) IS the quantized ReLU — exact, no dequant round trip.
        const std::uint8_t* src = static_cast<const std::uint8_t*>(in0);
        std::uint8_t* dst = static_cast<std::uint8_t*>(out);
        for (std::size_t i = 0; i < vo.elems; ++i) {
          dst[i] = src[i] > 128 ? src[i] : std::uint8_t{128};
        }
      } else {
        const float* src = static_cast<const float*>(in0);
        float* dst = static_cast<float*>(out);
        for (std::size_t i = 0; i < vo.elems; ++i) {
          dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
        }
      }
      break;
    }
    case Op::Kind::kMaxPool: {
      const std::size_t hw = op.hw;
      const std::size_t oh = hw / 2;
      // Byte-domain maxpool is exact for the same monotonicity reason as the
      // byte-domain ReLU: max commutes with quantization under one scale.
      // One region over the (batch x channel) planes.
      const auto pool2x2 = [&](const auto* src_all, auto* dst_all) {
        pool_->parallel_for(plan_.batch * op.channels, [&](std::size_t begin, std::size_t end) {
          for (std::size_t bc = begin; bc < end; ++bc) {
            const auto* src = src_all + bc * hw * hw;
            auto* dst = dst_all + bc * oh * oh;
            for (std::size_t y = 0; y < oh; ++y) {
              for (std::size_t x = 0; x < oh; ++x) {
                std::size_t best = (2 * y) * hw + 2 * x;
                for (std::size_t dy = 0; dy < 2; ++dy) {
                  for (std::size_t dx = 0; dx < 2; ++dx) {
                    const std::size_t idx = (2 * y + dy) * hw + 2 * x + dx;
                    if (src[idx] > src[best]) best = idx;
                  }
                }
                dst[y * oh + x] = src[best];
              }
            }
          }
        });
      };
      if (vo.dtype == DType::kU8) {
        pool2x2(static_cast<const std::uint8_t*>(in0), static_cast<std::uint8_t*>(out));
      } else {
        pool2x2(static_cast<const float*>(in0), static_cast<float*>(out));
      }
      break;
    }
    case Op::Kind::kDense: {
      const std::size_t in_f = op.dense->in_features();
      const std::size_t out_f = op.dense->out_features();
      const float* fin0 = static_cast<const float*>(in0);
      float* fout = static_cast<float*>(out);
      fp32_gemm(fin0, in_f, op.dense->weights().data(), out_f, fout, out_f, plan_.batch,
                in_f, out_f);
      const std::span<const float> bias = op.dense->bias();
      for (std::size_t b = 0; b < plan_.batch; ++b) {
        for (std::size_t o = 0; o < out_f; ++o) fout[b * out_f + o] += bias[o];
      }
      break;
    }
    case Op::Kind::kAddRelu: {
      ProfileSpan pspan(ProfileStage::kPostOps);
      const float* a = static_cast<const float*>(in0);
      const float* b = static_cast<const float*>(in1);
      float* dst = static_cast<float*>(out);
      for (std::size_t i = 0; i < vo.elems; ++i) {
        dst[i] = std::max(0.0f, a[i] + b[i]);
      }
      break;
    }
  }
}

}  // namespace lowino
