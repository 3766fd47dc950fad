#include "direct/direct_int8.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/saturate.h"
#include "direct/row_block.h"
#include "profile/profiler.h"
#include "quant/calibration.h"

namespace lowino {

Int8DirectConv::Int8DirectConv(const ConvDesc& desc) : desc_(desc) {
  desc.validate();
  desc.require_ungrouped("Int8DirectConv");
  patch_ = desc_.in_channels * desc_.kernel * desc_.kernel;
  patch_pad_ = round_up(patch_, 4);
  k_pad_ = round_up(desc_.out_channels, 16);
}

void Int8DirectConv::calibrate(std::span<const float> input_nchw) {
  input_hist_.collect(input_nchw);
}

void Int8DirectConv::finalize_calibration() {
  input_params_ = calibrate_params(input_hist_);
  input_scales_set_ = true;
  if (filters_set_) pack_weights();
}

void Int8DirectConv::set_input_threshold(float tau) {
  input_params_ = QuantParams::from_threshold(tau);
  input_scales_set_ = true;
  if (filters_set_) pack_weights();
}

void Int8DirectConv::set_filters(std::span<const float> weights, std::span<const float> bias) {
  assert(weights.size() >= desc_.out_channels * patch_);
  weights_fp32_.reset(desc_.out_channels * patch_);
  std::memcpy(weights_fp32_.data(), weights.data(),
              desc_.out_channels * patch_ * sizeof(float));
  bias_.reset(desc_.out_channels);
  bias_.fill_zero();
  if (!bias.empty()) std::memcpy(bias_.data(), bias.data(), desc_.out_channels * sizeof(float));
  filters_set_ = true;
  if (input_scales_set_) pack_weights();
}

void Int8DirectConv::pack_weights() {
  const std::size_t K = desc_.out_channels;
  // Per-channel exact weight scales.
  std::vector<float> w_scale(K);
  for (std::size_t k = 0; k < K; ++k) {
    float amax = 0.0f;
    for (std::size_t p = 0; p < patch_; ++p) {
      amax = std::max(amax, std::abs(weights_fp32_[k * patch_ + p]));
    }
    w_scale[k] = QuantParams::from_threshold(amax).scale;
  }
  // Quantize to the row-major (patch_pad x k_pad) B matrix in the im2col
  // rows' tap-major order (row (i * r + j) * C + c holds tap (i, j) of input
  // channel c), then pack. The integer reduction is exact in any order.
  const std::size_t C = desc_.in_channels, taps = desc_.kernel * desc_.kernel;
  std::vector<std::int8_t> w_q(patch_pad_ * k_pad_, 0);
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t c = 0; c < C; ++c) {
      for (std::size_t t = 0; t < taps; ++t) {
        w_q[(t * C + c) * k_pad_ + k] =
            saturate_cast_i8(weights_fp32_[(k * C + c) * taps + t] * w_scale[k]);
      }
    }
  }
  w_packed_.reset((patch_pad_ / 4) * k_pad_ * 4);
  pack_b_vpdpbusd(w_q.data(), patch_pad_, k_pad_, w_packed_.data());
  comp_.reset(k_pad_);
  compute_compensation(w_q.data(), patch_pad_, k_pad_, comp_.data());
  w_dequant_.reset(K);
  for (std::size_t k = 0; k < K; ++k) {
    w_dequant_[k] = 1.0f / (input_params_.scale * w_scale[k]);
  }
}

void Int8DirectConv::set_input_u8(const QuantParams& qp) {
  input_params_ = qp;
  input_scales_set_ = true;
  in_u8_ = true;
  if (filters_set_) pack_weights();  // w_dequant_ depends on the input scale
}

void Int8DirectConv::set_output_u8(const QuantParams& qp) {
  out_u8_ = true;
  out_u8_qp_ = qp;
}

void Int8DirectConv::execute_nchw(std::span<const float> input, std::span<float> output,
                                  ThreadPool* pool, const PostOps& post) {
  // The span API is FP32-by-contract regardless of u8 hand-off configuration.
  execute_impl(input.data(), output.data(), false, false, pool, post);
}

void Int8DirectConv::execute_typed(const void* input, void* output, ThreadPool* pool,
                                   const PostOps& post) {
  execute_impl(input, output, in_u8_, out_u8_, pool, post);
}

void Int8DirectConv::execute_impl(const void* input, void* output, bool in_u8, bool out_u8,
                                  ThreadPool* pool, const PostOps& post) {
  assert(filters_set_ && input_scales_set_);
  const std::size_t C = desc_.in_channels, H = desc_.height, W = desc_.width;
  const std::size_t r = desc_.kernel, s = desc_.stride;
  const std::size_t pad = desc_.height_pad(), pad_w = desc_.width_pad();
  const std::size_t OW = desc_.out_width(), rows = desc_.out_height() * OW;
  const std::size_t wp = W + 2 * pad_w;  // padded input width
  // Padded input rows one block can reach: its output rows times the stride,
  // plus the window.
  const std::size_t block_out_rows = std::min(desc_.out_height(), (kRowBlock - 1) / OW + 2);
  const std::size_t halo_rows = (block_out_rows - 1) * s + r;
  ensure_panels(panels_, pool, [&](Panel& panel) {
    panel.halo.ensure(halo_rows * wp * C);
    panel.a.ensure(kRowBlock * patch_pad_);
    panel.acc.ensure(kRowBlock * k_pad_);
  });
  const RowEpilogue ep{desc_.out_channels, rows, w_dequant_.data(), bias_.data(), post,
                       out_u8, out_u8_qp_.scale};
  for_each_row_block(pool, desc_.batch, rows,
                     [&](std::size_t tid, std::size_t b, std::size_t p0, std::size_t p1) {
    Panel& panel = panels_[tid];
    {
      ProfileSpan span(ProfileStage::kInputTransform);
      // Halo: the padded input rows [y0, y0 + hr) the block reads, quantized
      // (+128) once and stored channels-innermost ([hr][wp][C]); padding is
      // 128 = quantized zero, which the compensation row accounts for.
      const std::size_t oh0 = p0 / OW;
      const std::size_t y0 = oh0 * s, hr = ((p1 - 1) / OW - oh0) * s + r;
      std::uint8_t* halo = panel.halo.data();
      for (std::size_t hy = 0; hy < hr; ++hy) {
        std::uint8_t* row = halo + hy * wp * C;
        const std::size_t y = y0 + hy;
        if (y < pad || y >= pad + H) {
          std::memset(row, 128, wp * C);
          continue;
        }
        std::memset(row, 128, pad_w * C);
        std::memset(row + (pad_w + W) * C, 128, pad_w * C);
        const std::size_t at = (b * C * H + (y - pad)) * W;
        if (in_u8) {
          gather_channels(static_cast<const std::uint8_t*>(input) + at, H * W, 1, W, C,
                          row + pad_w * C, C, C);
        } else {
          gather_channels(static_cast<const float*>(input) + at, H * W, 1, W, C,
                          input_params_.scale, row + pad_w * C, C, C);
        }
      }
      // im2col rows in tap-major order: window row i of pixel (oh, ow) is r * C
      // contiguous halo bytes.
      for (std::size_t p = p0; p < p1; ++p) {
        const std::size_t oh = p / OW, ow = p % OW;
        std::uint8_t* dst = panel.a.data() + (p - p0) * patch_pad_;
        const std::uint8_t* src = halo + ((oh * s - y0) * wp + ow * s) * C;
        for (std::size_t i = 0; i < r; ++i) std::memcpy(dst + i * r * C, src + i * wp * C, r * C);
        // Padding columns: quantized zero, annihilated by the zero filter rows.
        std::memset(dst + patch_, 128, patch_pad_ - patch_);
      }
    }
    int8_gemm_packed(panel.a.data(), patch_pad_, w_packed_.data(), comp_.data(),
                     panel.acc.data(), k_pad_, p1 - p0, patch_pad_, k_pad_, blocking_);
    ProfileSpan span(ProfileStage::kOutputTransform);
    store_rows(ep, panel.acc.data(), k_pad_, b, p0, p1, output);
  });
}

}  // namespace lowino
