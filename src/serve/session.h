// InferenceSession: the serving layer, separating *plan time* from *run
// time* (the API counterpart of the paper's "tune ahead of time, serve from
// wisdom" workflow, extended from one convolution to a whole network).
//
// Plan time — InferenceSession::compile(model, calib_input, options):
//   * lowers the SequentialModel to a flat op list (convolutions, ReLU,
//     maxpool, dense, residual add — residual blocks are flattened so the
//     skip connection becomes a real multi-buffer live range), giving each
//     non-quantizable convolution (FP32 stems) its own kFp32Direct engine —
//     not selected and not a SessionPlan line;
//   * runs the post-op fusion pass: conv->relu and conv->add+relu chains
//     collapse into the convolution's single output pass (PostOps epilogue)
//     when the eligible engines support it, killing the element-wise passes
//     and shortening live ranges so the arena peak drops. Gated by the
//     LOWINO_FUSE_POSTOPS kill-switch (default on; set 0 to A/B);
//   * runs one FP32 pass over the calibration batch, capturing every
//     convolution's input distribution and reference output;
//   * picks an engine per quantizable convolution: a measured shoot-out
//     across the eligible candidates (F(2)/F(4)/F(6) eligibility comes from
//     make_conv_engine itself), gated by an accuracy envelope (minimum
//     signal-to-noise vs the FP32 reference), consulted from / recorded into
//     a WisdomStore, with PlanOptions::forced_engine as the escape hatch;
//   * lays every intermediate activation out in one arena via the
//     liveness-based planner (serve/arena.h) and reports planned vs naive
//     peak bytes in the SessionPlan;
//   * binds a persistent ThreadPool and pre-warms every scratch buffer.
//
// Run time — session.run(input, output): executes the op list against the
// arena. Steady-state runs perform zero heap allocations (asserted by the
// malloc-counting harness in tests/test_serve.cc) and record one
// ProfileStage::kServe span per op (engine-internal stages nest inside, so
// LOWINO_PROFILE=1 yields a per-layer, per-stage breakdown).
//
// Threading contract: distinct sessions are thread-compatible — every
// mutable buffer (engines, arena, scratch) is session-owned, and the only
// model state touched at run time is read-only (weights/bias spans). The
// model must outlive its sessions and must not be trained between compile()
// and run(). A single session object is not reentrant.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/aligned_buffer.h"
#include "nn/graph.h"
#include "quant/quantize.h"
#include "serve/arena.h"
#include "tensor/dtype.h"
#include "tensor/tensor.h"
#include "tuning/wisdom.h"

namespace lowino {

class ThreadPool;
struct SessionPlan;

struct PlanOptions {
  /// Forces this engine on every quantizable convolution (no shoot-out, no
  /// envelope). Throws at compile time if any layer cannot build it.
  std::optional<EngineKind> forced_engine;
  /// Candidate engines for the shoot-out; empty means the default quantized
  /// set {int8_direct, lowino_f2, lowino_f4, lowino_f6}.
  std::vector<EngineKind> candidates;
  /// Accuracy envelope: a quantized candidate must reach this
  /// signal-to-noise (dB) vs the FP32 reference to be eligible. When no
  /// candidate passes, the highest-SNR candidate wins anyway (a plan always
  /// exists) and the miss is visible in the SessionPlan record.
  double min_snr_db = 20.0;
  /// Measurement budget per candidate in the plan-time shoot-out.
  double seconds_per_candidate = 0.02;
  /// Pool bound into the session (plan-time measurements and every run).
  /// Null binds ThreadPool::global().
  ThreadPool* pool = nullptr;
  /// When set, per-layer decisions are consulted from ("plan-engine <desc>"
  /// string entries) and recorded into this store. Programmatic overrides
  /// (forced_engine, reuse) beat wisdom.
  WisdomStore* wisdom = nullptr;
  /// Replays a previously compiled (possibly deserialized) plan's engine
  /// choices instead of measuring. Throws if the plan does not match the
  /// model/batch. Takes precedence over wisdom; forced_engine beats both.
  const SessionPlan* reuse = nullptr;
};

/// The serializable record of one compile(): what was chosen and why, plus
/// the memory-planning outcome. Round-trips through serialize()/deserialize()
/// so a tuned plan can be shipped next to the wisdom file and replayed with
/// PlanOptions::reuse.
struct SessionPlan {
  struct ConvChoice {
    std::size_t op_index = 0;  ///< position in the lowered op list
    std::string layer;         ///< layer display name
    std::string desc;          ///< ConvDesc::to_string() at the plan batch
    EngineKind engine = EngineKind::kLoWinoF4;
    double snr_db = 0.0;       ///< measured vs FP32 reference (0 on replay)
    double seconds = 0.0;      ///< plan-time median latency (0 on replay)
    bool met_envelope = true;  ///< false: best-effort pick below min_snr_db
    // Post-op fusion outcome: the element-wise ops the compiler folded into
    // this convolution's output pass (serialized as a "post=" token).
    // Informational on replay — fusion is re-decided from the model
    // structure, the engine capability and the LOWINO_FUSE_POSTOPS switch,
    // which is safe because fused and unfused execution are bit-identical.
    bool fuse_relu = false;
    bool fuse_sum = false;
    // u8 activation hand-off outcome of the type-assignment pass (serialized
    // as a "dtype=in:out" token, omitted when both are FP32 so all-FP32 conv
    // lines stay byte-identical to the v2 format). On replay the tokens are
    // authoritative: the compiler reconstructs the per-value dtypes from them
    // instead of re-running the SNR-gated assignment.
    DType in_dtype = DType::kF32;
    DType out_dtype = DType::kF32;
  };

  std::size_t batch = 0;
  std::vector<ConvChoice> convs;
  std::size_t arena_bytes = 0;  ///< planned arena peak
  std::size_t naive_bytes = 0;  ///< one-buffer-per-value footprint

  /// Human-readable multi-line report (engine per layer, arena savings).
  std::string summary() const;

  /// Plain-text format ("# lowino-plan v3" header; conv lines carry an
  /// optional "post=relu|sum|sum+relu|none" head token recording fused
  /// epilogues and an optional "dtype=<in>:<out>" token recording u8
  /// hand-off dtypes — both absent means unfused / all-FP32, so v1 and v2
  /// files still load). Strict parser: any malformed line (including a
  /// corrupt post or dtype token) rejects the whole plan (nullopt) — a
  /// corrupt plan file must not silently serve with default engines or
  /// dtypes.
  std::string serialize() const;
  static std::optional<SessionPlan> deserialize(const std::string& text);
  bool save(const std::string& path) const;
  static std::optional<SessionPlan> load(const std::string& path);
};

class InferenceSession {
 public:
  /// Plans and builds a session. `calib_input` is one representative input
  /// batch (rank-4 NCHW); its batch dimension fixes the session batch.
  /// Throws std::invalid_argument on unsupported models/shapes and
  /// std::logic_error never (lifecycle ordering is the session's job).
  static InferenceSession compile(SequentialModel& model, const Tensor<float>& calib_input,
                                  const PlanOptions& options = {});

  /// Executes one batch. `input` must have the compile-time shape; `output`
  /// is reshaped to the network output. Zero heap allocations in steady
  /// state (everything was pre-warmed at compile time; the caller's output
  /// tensor grows once on its first use). Not reentrant.
  void run(const Tensor<float>& input, Tensor<float>& output);

  const SessionPlan& plan() const { return plan_; }
  std::size_t batch() const { return plan_.batch; }
  std::size_t op_count() const { return ops_.size(); }
  ThreadPool& pool() const { return *pool_; }

  InferenceSession(InferenceSession&&) noexcept = default;
  InferenceSession& operator=(InferenceSession&&) noexcept = default;

 private:
  InferenceSession() = default;

  struct Op {
    enum class Kind { kConvEngine, kConvFp32, kRelu, kMaxPool, kDense, kAddRelu };
    Kind kind = Kind::kRelu;
    std::size_t in0 = 0;   ///< value id
    std::size_t in1 = 0;   ///< second input (kAddRelu; residual when fuse_sum)
    std::size_t out = 0;   ///< output value id
    // Fused epilogue of a conv op (set by the compiler's post-op fusion pass
    // when a kRelu / kAddRelu successor was folded into the output pass).
    bool fuse_relu = false;
    bool fuse_sum = false;  ///< residual value id rides in in1
    ConvLayer* conv = nullptr;    ///< kConvEngine / kConvFp32
    DenseLayer* dense = nullptr;  ///< kDense
    std::size_t channels = 0;     ///< kMaxPool
    std::size_t hw = 0;           ///< kMaxPool input spatial size
    /// Session-owned engine of a conv op: the selected one (kConvEngine) or
    /// kFp32Direct (kConvFp32). Sessions never share mutable state, even
    /// when compiled from the same model.
    std::unique_ptr<ConvEngine> engine;
    std::string label;
  };

  /// One lowered value (activation). Values 0 and `output_value_` live in
  /// the caller's tensors; everything else lives in the arena. The dtype is
  /// assigned by the compile-time type-assignment pass (FP32 by default; u8
  /// on hand-off edges, with `qp` recording the hand-off quantization).
  struct Value {
    std::vector<std::size_t> shape;
    std::size_t elems = 0;
    std::size_t def_step = 0;
    std::size_t last_use = 0;
    std::size_t offset_bytes = 0;  ///< arena offset (64B-aligned)
    bool external = false;
    DType dtype = DType::kF32;
    QuantParams qp;  ///< hand-off quantization (meaningful when dtype == kU8)
    std::size_t bytes() const { return elems * dtype_bytes(dtype); }
  };

  void execute_op(Op& op, const void* in0, const void* in1, void* out);
  const void* value_in(std::size_t v, const Tensor<float>& input) const;
  void* value_out(std::size_t v, Tensor<float>& output);

  std::vector<Op> ops_;
  std::vector<Value> values_;
  std::size_t output_value_ = 0;
  AlignedBuffer<std::uint8_t> arena_;
  Tensor<float> warmup_out_;  ///< compile-time warmup target
  ThreadPool* pool_ = nullptr;
  SessionPlan plan_;
};

}  // namespace lowino
