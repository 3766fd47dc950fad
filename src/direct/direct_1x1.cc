#include "direct/direct_1x1.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "common/saturate.h"
#include "direct/row_block.h"
#include "profile/profiler.h"
#include "quant/calibration.h"

namespace lowino {

Int8Conv1x1Conv::Int8Conv1x1Conv(const ConvDesc& desc) : desc_(desc) {
  desc.validate();
  desc.require_ungrouped("Int8Conv1x1Conv");
  if (desc.kernel != 1) {
    throw std::invalid_argument("Int8Conv1x1Conv: kernel must be 1 [" + desc.to_string() +
                                "]");
  }
  c_pad_ = round_up(desc_.in_channels, 4);
  k_pad_ = round_up(desc_.out_channels, 16);
}

void Int8Conv1x1Conv::calibrate(std::span<const float> input_nchw) {
  input_hist_.collect(input_nchw);
}

void Int8Conv1x1Conv::finalize_calibration() {
  input_params_ = calibrate_params(input_hist_);
  input_scales_set_ = true;
  if (filters_set_) pack_weights();
}

void Int8Conv1x1Conv::set_input_threshold(float tau) {
  input_params_ = QuantParams::from_threshold(tau);
  input_scales_set_ = true;
  if (filters_set_) pack_weights();
}

void Int8Conv1x1Conv::set_filters(std::span<const float> weights,
                                  std::span<const float> bias) {
  const std::size_t C = desc_.in_channels, K = desc_.out_channels;
  assert(weights.size() >= K * C);
  weights_fp32_.reset(K * C);
  std::memcpy(weights_fp32_.data(), weights.data(), K * C * sizeof(float));
  bias_.reset(K);
  bias_.fill_zero();
  if (!bias.empty()) std::memcpy(bias_.data(), bias.data(), K * sizeof(float));
  filters_set_ = true;
  if (input_scales_set_) pack_weights();
}

void Int8Conv1x1Conv::pack_weights() {
  const std::size_t C = desc_.in_channels, K = desc_.out_channels;
  // Per-channel exact weight scales (patch = C for r = 1).
  std::vector<float> w_scale(K);
  for (std::size_t k = 0; k < K; ++k) {
    float amax = 0.0f;
    for (std::size_t c = 0; c < C; ++c) {
      amax = std::max(amax, std::abs(weights_fp32_[k * C + c]));
    }
    w_scale[k] = QuantParams::from_threshold(amax).scale;
  }
  std::vector<std::int8_t> w_q(c_pad_ * k_pad_, 0);
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t c = 0; c < C; ++c) {
      w_q[c * k_pad_ + k] = saturate_cast_i8(weights_fp32_[k * C + c] * w_scale[k]);
    }
  }
  w_packed_.reset((c_pad_ / 4) * k_pad_ * 4);
  pack_b_vpdpbusd(w_q.data(), c_pad_, k_pad_, w_packed_.data());
  comp_.reset(k_pad_);
  compute_compensation(w_q.data(), c_pad_, k_pad_, comp_.data());
  w_dequant_.reset(K);
  for (std::size_t k = 0; k < K; ++k) {
    w_dequant_[k] = 1.0f / (input_params_.scale * w_scale[k]);
  }
}

void Int8Conv1x1Conv::set_input_u8(const QuantParams& qp) {
  input_params_ = qp;
  input_scales_set_ = true;
  in_u8_ = true;
  if (filters_set_) pack_weights();  // w_dequant_ depends on the input scale
}

void Int8Conv1x1Conv::set_output_u8(const QuantParams& qp) {
  out_u8_ = true;
  out_u8_qp_ = qp;
}

void Int8Conv1x1Conv::execute_nchw(std::span<const float> input, std::span<float> output,
                                   ThreadPool* pool, const PostOps& post) {
  // The span API is FP32-by-contract regardless of u8 hand-off configuration.
  execute_impl(input.data(), output.data(), false, false, pool, post);
}

void Int8Conv1x1Conv::execute_typed(const void* input, void* output, ThreadPool* pool,
                                    const PostOps& post) {
  execute_impl(input, output, in_u8_, out_u8_, pool, post);
}

void Int8Conv1x1Conv::execute_impl(const void* input, void* output, bool in_u8,
                                   bool out_u8, ThreadPool* pool, const PostOps& post) {
  assert(filters_set_ && input_scales_set_);
  const std::size_t C = desc_.in_channels, H = desc_.height, W = desc_.width;
  const std::size_t OW = desc_.out_width(), s = desc_.stride;
  const std::size_t rows = desc_.out_height() * OW;
  ensure_panels(panels_, pool, [&](Panel& panel) {
    panel.a.ensure(kRowBlock * c_pad_);
    panel.acc.ensure(kRowBlock * k_pad_);
  });
  const RowEpilogue ep{desc_.out_channels, rows, w_dequant_.data(), bias_.data(), post,
                       out_u8, out_u8_qp_.scale};
  for_each_row_block(pool, desc_.batch, rows,
                     [&](std::size_t tid, std::size_t b, std::size_t p0, std::size_t p1) {
    Panel& panel = panels_[tid];
    {
      // A rows: quantize(+128)-and-transpose the block's pixels. pad = 0 for
      // r = 1, so there is no out-of-bounds case; at stride 1 the block is one
      // contiguous run of every plane, otherwise one strided run per row.
      ProfileSpan span(ProfileStage::kInputTransform);
      for (std::size_t p = p0; p < p1;) {
        const std::size_t oh = p / OW, ow = p % OW;
        const std::size_t n = s == 1 ? p1 - p : std::min(p1 - p, OW - ow);
        const std::size_t at = (b * C * H + oh * s) * W + ow * s;
        std::uint8_t* dst = panel.a.data() + (p - p0) * c_pad_;
        if (in_u8) {
          gather_channels(static_cast<const std::uint8_t*>(input) + at, H * W, s, n, C, dst,
                          c_pad_, c_pad_);
        } else {
          gather_channels(static_cast<const float*>(input) + at, H * W, s, n, C,
                          input_params_.scale, dst, c_pad_, c_pad_);
        }
        p += n;
      }
    }
    int8_gemm_packed(panel.a.data(), c_pad_, w_packed_.data(), comp_.data(), panel.acc.data(),
                     k_pad_, p1 - p0, c_pad_, k_pad_, blocking_);
    ProfileSpan span(ProfileStage::kOutputTransform);
    store_rows(ep, panel.acc.data(), k_pad_, b, p0, p1, output);
  });
}

}  // namespace lowino
