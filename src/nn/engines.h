// Uniform adapter over every convolution engine in the repository, used by
// the NN runtime and the serving layer to swap implementations per layer
// (Table 3 columns, the Figure 8 engine set, and serve-plan auto-selection).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "quant/quantize.h"
#include "tensor/conv_desc.h"
#include "tensor/dtype.h"
#include "tensor/post_ops.h"

namespace lowino {

class ThreadPool;

enum class EngineKind {
  kFp32Direct,    ///< im2col + AVX-512 FP32 GEMM (baseline "FP32 best direct")
  kFp32WinoF2,    ///< FP32 Winograd F(2x2,3x3)
  kFp32WinoF4,    ///< FP32 Winograd F(4x4,3x3)
  kInt8Direct,    ///< INT8 direct (non-Winograd post-training quantization)
  kLoWinoF2,      ///< LoWino F(2x2,3x3)
  kLoWinoF4,      ///< LoWino F(4x4,3x3)
  kLoWinoF6,      ///< LoWino F(6x6,3x3) (extension beyond the paper's eval)
  kDownscaleF2,   ///< oneDNN-style down-scaling F(2x2,3x3)
  kDownscaleF4,   ///< oneDNN-style down-scaling F(4x4,3x3)
  kUpcastF2,      ///< ncnn-style up-casting (INT16) F(2x2,3x3)
  kVendorF2,      ///< fused vendor-style INT8 F(2x2,3x3)
  kInt8Conv1x1,   ///< INT8 1x1 (pure blocked VNNI GEMM, no im2col)
  kInt8Depthwise, ///< INT8 depthwise direct (groups == C)
};

/// Human-readable display name ("LoWino F(4x4,3x3)").
const char* engine_name(EngineKind kind);

/// Stable machine token ("lowino_f4") — what plan files, wisdom entries and
/// command lines use. engine_kind_from_string() parses both forms.
const char* engine_token(EngineKind kind);

/// Parses an engine identifier: the machine token (ASCII case-insensitive,
/// '-' and '_' interchangeable) or the exact engine_name() display string.
/// Returns nullopt for anything else. Round-trips with both engine_token()
/// and engine_name() for every EngineKind.
std::optional<EngineKind> engine_kind_from_string(std::string_view name);

/// Every EngineKind, in declaration order (for benches/examples that sweep
/// the whole engine set). Derived from the engine registry
/// (nn/engine_registry.h), as are all the per-kind queries above.
std::span<const EngineKind> all_engine_kinds();

/// The capability descriptor of one (engine kind, problem) pair — what the
/// session compiler, tuner shoot-out, fuzzer gating and bench filters consult
/// before constructing anything. The first three bits are per-kind invariants;
/// `supports` is the per-shape gate: true exactly when make_conv_engine(kind,
/// desc) would succeed (false also for a structurally invalid desc).
struct EngineCaps {
  bool quantized = false;   ///< runs quantized arithmetic (needs calibration)
  bool post_ops = false;    ///< executes a fused PostOps epilogue (bias/+sum/ReLU)
  bool u8_handoff = false;  ///< takes part in the u8 activation hand-off
  bool supports = false;    ///< accepts this ConvDesc (shape-capability gate)
};

/// The one capability query: per-kind invariants plus the per-shape gate
/// (1x1-only, depthwise-only engines).
EngineCaps engine_caps(EngineKind kind, const ConvDesc& desc);

/// The LOWINO_FUSE_POSTOPS kill-switch (env or RuntimeConfig override,
/// default on). When off, the session compiler and the layer runtime keep the
/// separate element-wise bias/ReLU/sum passes — the A/B lever for measuring
/// the fusion win.
bool post_op_fusion_enabled();

/// The LOWINO_U8_HANDOFF kill-switch (env or RuntimeConfig override, default
/// on). When off, the session compiler assigns FP32 to every activation edge
/// and replayed plans ignore their recorded dtype tokens — the A/B lever for
/// measuring the hand-off win, and the escape hatch if a deployment ever
/// needs bit-exact FP32 inter-layer semantics back.
bool u8_handoff_enabled();

/// Below this many Winograd tiles, calibration samples every tile: a strided
/// sweep over e.g. a 4-tile CIFAR tail would feed the KL histograms from a
/// quarter of the data.
inline constexpr std::size_t kCalibDenseTileLimit = 32;

/// Calibration tile stride used by the LoWino engines: LOWINO_CALIB_STRIDE
/// (when set to a positive integer, via env or RuntimeConfig override) wins;
/// otherwise stride 1 for layers with fewer than kCalibDenseTileLimit tiles
/// and the subsampling stride 2 beyond.
std::size_t lowino_calibration_stride(std::size_t total_tiles);

/// One convolution engine bound to a fixed ConvDesc.
///
/// Lifecycle: calibrate()* -> finalize_calibration() -> set_filters() ->
/// run()*, enforced by an explicit state machine — misuse throws
/// std::logic_error instead of silently computing garbage:
///
///   * calibrate() after finalize_calibration()            -> throws
///   * finalize_calibration() twice                        -> throws
///   * finalize_calibration() without any calibrate() on a
///     quantized engine (no statistics to finalize)        -> throws
///   * set_filters() on a quantized engine that is mid-calibration or was
///     never finalized (its input scales don't exist yet)  -> throws
///   * run() before set_filters()                          -> throws
///
/// Non-quantized engines ignore calibration: their set_filters() may be the
/// first call (the state machine advances implicitly), but the ordering
/// violations above still throw so a caller's bug surfaces regardless of
/// which engine kind the layer happens to select.
///
/// set_filters() may be called again at any point after the engine is ready
/// (weight reload); run() stays legal afterwards.
class ConvEngine {
 public:
  enum class Lifecycle {
    kCalibrating,  ///< accepting calibrate() samples (initial state)
    kFinalized,    ///< scales fixed; waiting for filters
    kReady,        ///< run() is legal
  };

  virtual ~ConvEngine() = default;

  void calibrate(std::span<const float> input_nchw);
  void finalize_calibration();
  void set_filters(std::span<const float> weights, std::span<const float> bias);
  /// Runs on FP32 NCHW spans, with an optional fused PostOps epilogue. A
  /// non-empty `post` on an engine whose supports_post_ops() is false throws
  /// std::logic_error — callers must consult the capability and fall back to
  /// unfused execution plus element-wise passes themselves. FP32 in and out
  /// even after set_input_u8 / set_output_u8 (those configure run_typed only).
  void run(std::span<const float> input, std::span<float> output, ThreadPool* pool,
           const PostOps& post = {});

  /// See EngineCaps::post_ops (kind-invariant, hence no desc parameter).
  bool supports_post_ops() const;

  /// See EngineCaps::u8_handoff (kind-invariant, hence no desc parameter).
  bool supports_u8_handoff() const;

  /// Configures the u8 activation hand-off (tensor/dtype.h). set_input_u8
  /// declares that run_typed() will receive pre-quantized u8 input bytes
  /// (q = round_ne(qp.scale * x) + 128); set_output_u8 that it must emit
  /// requantized u8 output with qp.scale. Legal only on engines whose
  /// supports_u8_handoff() is true and only after finalize_calibration()
  /// (the hand-off composes with — or replaces — the engine's own calibrated
  /// input quantization); misuse throws std::logic_error.
  void set_input_u8(const QuantParams& qp);
  void set_output_u8(const QuantParams& qp);
  DType input_dtype() const { return in_dtype_; }
  DType output_dtype() const { return out_dtype_; }

  /// Runs honoring the configured hand-off dtypes: `input`/`output` point at
  /// input_dtype()/output_dtype() elements. With both dtypes FP32 and no
  /// post.sum_u8 this computes exactly what run() computes. Only legal on
  /// engines whose supports_u8_handoff() is true — FP32-only engines keep the
  /// span-typed run() as their sole entry point.
  void run_typed(const void* input, void* output, ThreadPool* pool,
                 const PostOps& post = {});

  Lifecycle lifecycle() const { return state_; }
  virtual EngineKind kind() const = 0;

 protected:
  virtual void do_calibrate(std::span<const float> input_nchw) = 0;
  virtual void do_finalize_calibration() = 0;
  virtual void do_set_filters(std::span<const float> weights,
                              std::span<const float> bias) = 0;
  /// `post` is empty unless supports_post_ops(), so declining engines may
  /// ignore it.
  virtual void do_run(std::span<const float> input, std::span<float> output,
                      ThreadPool* pool, const PostOps& post) = 0;
  /// Only dispatched when supports_u8_handoff(); the defaults throw — a
  /// capable wrapper must implement all three.
  virtual void do_set_input_u8(const QuantParams& qp);
  virtual void do_set_output_u8(const QuantParams& qp);
  virtual void do_run_typed(const void* input, void* output, ThreadPool* pool,
                            const PostOps& post);

 private:
  [[noreturn]] void misuse(const char* what) const;

  Lifecycle state_ = Lifecycle::kCalibrating;
  bool saw_calibration_ = false;
  DType in_dtype_ = DType::kF32;
  DType out_dtype_ = DType::kF32;
};

/// Factory. Throws std::invalid_argument for incompatible (kind, desc) pairs
/// (e.g. up-casting with r != 3).
std::unique_ptr<ConvEngine> make_conv_engine(EngineKind kind, const ConvDesc& desc);

}  // namespace lowino
