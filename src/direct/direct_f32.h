// FP32 direct convolutions.
//
// * `direct_conv_f32_reference` — straightforward NCHW loops; the numerical
//   oracle every other engine in the repository is tested against.
// * `Im2colConvF32` — im2col + AVX-512 GEMM; the "best FP32 implementation"
//   baseline of Section 5.1 and the workhorse of the NN training runtime.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/aligned_buffer.h"
#include "tensor/conv_desc.h"
#include "tensor/post_ops.h"

namespace lowino {

class ThreadPool;

/// output[b][k][oh][ow] = bias[k] + sum_{c,i,j} input[b][c][oh+i-pad][ow+j-pad]
///                        * weights[k][c][i][j]; optional fused ReLU.
void direct_conv_f32_reference(const ConvDesc& desc, std::span<const float> input,
                               std::span<const float> weights, std::span<const float> bias,
                               std::span<float> output, bool relu = false,
                               ThreadPool* pool = nullptr);

/// im2col + FP32 GEMM convolution (NCHW in/out), run as one region of
/// (image x row-block) tasks with per-thread panels (direct/row_block.h).
class Im2colConvF32 {
 public:
  explicit Im2colConvF32(const ConvDesc& desc);

  /// `weights`: K x C x r x r row-major; `bias` optional (length K).
  void set_filters(std::span<const float> weights, std::span<const float> bias = {});
  /// `post` fuses the residual +sum / ReLU epilogue into the bias store loop
  /// (see tensor/post_ops.h).
  void execute_nchw(std::span<const float> input, std::span<float> output,
                    ThreadPool* pool = nullptr, const PostOps& post = {});

  const ConvDesc& desc() const { return desc_; }

 private:
  ConvDesc desc_;
  std::size_t patch_ = 0;  ///< C * r * r
  AlignedBuffer<float> wT_;   ///< patch x K (GEMM B operand), K padded to 16
  std::size_t k_pad_ = 0;
  AlignedBuffer<float> bias_;
  struct Panel {
    AlignedBuffer<float> col;  ///< kRowBlock x patch im2col rows
    AlignedBuffer<float> acc;  ///< kRowBlock x k_pad GEMM result
  };
  std::vector<Panel> panels_;  ///< one per thread
};

/// Fills `col` ((p_end - p_begin) x (C * r * r)) with the im2col expansion of
/// output pixels [p_begin, p_end) of image `b` of `input` (NCHW),
/// zero-padding the halo.
void im2col_f32(const ConvDesc& desc, std::span<const float> input, std::size_t b,
                std::size_t p_begin, std::size_t p_end, float* col);

}  // namespace lowino
