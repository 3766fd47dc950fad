// INT8 1x1 convolution: a pure blocked VNNI GEMM over the channel dimension.
//
// A 1x1 convolution is a (OH*OW) x C by C x K matrix product per image — no
// im2col patch expansion, no out-of-bounds checks (validate() forces pad = 0
// when r = 1). The A rows are the shared quantize(+128)-and-transpose gather
// (direct/row_block.h) applied straight to the block's pixels (strided along
// the spatial axis when stride > 1), where Int8DirectConv gathers a halo and
// then copies window rows out of it. Quantization scheme, GEMM substrate,
// row-block execution and the dequant/PostOps/requant tail are shared with
// Int8DirectConv, so the speedup isolates that copy.
//
// Mirrors the Euler `elx_conv_direct_1x1_lp` specialization (SNIPPETS.md).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned_buffer.h"
#include "gemm/int8_gemm.h"
#include "quant/histogram.h"
#include "quant/quantize.h"
#include "tensor/conv_desc.h"
#include "tensor/post_ops.h"

namespace lowino {

class ThreadPool;

/// Same public surface as Int8DirectConv (the conformance fuzzer drives both
/// uniformly). The constructor throws std::invalid_argument — before any
/// workspace allocation — unless kernel == 1 and groups == 1; any stride is
/// accepted (the gather is just strided).
class Int8Conv1x1Conv {
 public:
  explicit Int8Conv1x1Conv(const ConvDesc& desc);

  void calibrate(std::span<const float> input_nchw);
  void finalize_calibration();
  /// Bypass: set the spatial-domain threshold directly.
  void set_input_threshold(float tau);

  void set_filters(std::span<const float> weights, std::span<const float> bias = {});

  /// `post` fuses the residual +sum / ReLU epilogue into the dequant store
  /// loop (see tensor/post_ops.h).
  void execute_nchw(std::span<const float> input, std::span<float> output,
                    ThreadPool* pool = nullptr, const PostOps& post = {});

  /// Serving u8 hand-off — identical contract to Int8DirectConv: set_input_u8
  /// ADOPTS the hand-off quantization as the spatial input scale, set_output_u8
  /// appends the requant stage. Only execute_typed honors either.
  void set_input_u8(const QuantParams& qp);
  void set_output_u8(const QuantParams& qp);
  bool input_is_u8() const { return in_u8_; }
  bool output_is_u8() const { return out_u8_; }

  void execute_typed(const void* input, void* output, ThreadPool* pool = nullptr,
                     const PostOps& post = {});

  const ConvDesc& desc() const { return desc_; }
  float input_scale() const { return input_params_.scale; }

 private:
  ConvDesc desc_;
  std::size_t c_pad_ = 0;  ///< C rounded to 4 (the GEMM's reduction dim)
  std::size_t k_pad_ = 0;  ///< K rounded to 16

  Histogram input_hist_;
  QuantParams input_params_;
  bool input_scales_set_ = false;

  AlignedBuffer<std::int8_t> w_packed_;  ///< vpdpbusd layout (c_pad/4) x (k_pad*4)
  AlignedBuffer<std::int32_t> comp_;     ///< [k_pad]
  AlignedBuffer<float> w_dequant_;       ///< per-channel 1/(scale_in*scale_w)
  AlignedBuffer<float> bias_;
  bool filters_set_ = false;
  AlignedBuffer<float> weights_fp32_;  ///< kept until scales are known

  struct Panel {
    AlignedBuffer<std::uint8_t> a;     ///< kRowBlock x c_pad quantized+transposed rows
    AlignedBuffer<std::int32_t> acc;   ///< kRowBlock x k_pad GEMM result
  };
  std::vector<Panel> panels_;  ///< one per thread
  Int8GemmBlocking blocking_;

  bool in_u8_ = false;
  bool out_u8_ = false;
  QuantParams out_u8_qp_;

  void pack_weights();
  void execute_impl(const void* input, void* output, bool in_u8, bool out_u8,
                    ThreadPool* pool, const PostOps& post);
};

}  // namespace lowino
