#include "direct/direct_f32.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "direct/row_block.h"
#include "gemm/fp32_gemm.h"
#include "parallel/thread_pool.h"
#include "profile/profiler.h"

namespace lowino {

void direct_conv_f32_reference(const ConvDesc& desc, std::span<const float> input,
                               std::span<const float> weights, std::span<const float> bias,
                               std::span<float> output, bool relu, ThreadPool* pool) {
  const std::size_t B = desc.batch, C = desc.in_channels, K = desc.out_channels;
  const std::size_t H = desc.height, W = desc.width, r = desc.kernel;
  const std::size_t pad = desc.height_pad(), pad_w = desc.width_pad();
  const std::size_t OH = desc.out_height(), OW = desc.out_width();
  assert(input.size() >= B * C * H * W);
  assert(weights.size() >= K * C * r * r);
  assert(output.size() >= B * K * OH * OW);

  auto body = [&](std::size_t begin, std::size_t end) {
    for (std::size_t job = begin; job < end; ++job) {
      const std::size_t b = job / K;
      const std::size_t k = job % K;
      for (std::size_t oh = 0; oh < OH; ++oh) {
        for (std::size_t ow = 0; ow < OW; ++ow) {
          float acc = bias.empty() ? 0.0f : bias[k];
          for (std::size_t c = 0; c < C; ++c) {
            for (std::size_t i = 0; i < r; ++i) {
              const std::ptrdiff_t ih = static_cast<std::ptrdiff_t>(oh * desc.stride + i) -
                                        static_cast<std::ptrdiff_t>(pad);
              if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(H)) continue;
              for (std::size_t j = 0; j < r; ++j) {
                const std::ptrdiff_t iw = static_cast<std::ptrdiff_t>(ow * desc.stride + j) -
                                          static_cast<std::ptrdiff_t>(pad_w);
                if (iw < 0 || iw >= static_cast<std::ptrdiff_t>(W)) continue;
                acc += input[((b * C + c) * H + ih) * W + iw] *
                       weights[((k * C + c) * r + i) * r + j];
              }
            }
          }
          output[((b * K + k) * OH + oh) * OW + ow] = relu ? std::max(0.0f, acc) : acc;
        }
      }
    }
  };

  if (pool != nullptr) {
    pool->parallel_for(B * K, body);
  } else {
    body(0, B * K);
  }
}

void im2col_f32(const ConvDesc& desc, std::span<const float> input, std::size_t b,
                std::size_t p_begin, std::size_t p_end, float* col) {
  const std::size_t C = desc.in_channels, H = desc.height, W = desc.width;
  const std::size_t r = desc.kernel, s = desc.stride;
  const std::size_t pad = desc.height_pad(), pad_w = desc.width_pad();
  const std::size_t OW = desc.out_width();
  const std::size_t patch = C * r * r;
  // One output row's run of pixels at a time, tap by tap: the pixels whose
  // tap lands inside the input form one range, copied without bounds checks.
  for (std::size_t p = p_begin; p < p_end;) {
    const std::size_t oh = p / OW, ow0 = p % OW;
    const std::size_t n = std::min(OW - ow0, p_end - p);
    float* run = col + (p - p_begin) * patch;
    for (std::size_t c = 0; c < C; ++c) {
      for (std::size_t i = 0; i < r; ++i) {
        const std::size_t y = oh * s + i;  // row in the padded input
        const bool row_in = y >= pad && y < pad + H;
        const float* src = input.data() + ((b * C + c) * H + (row_in ? y - pad : 0)) * W;
        for (std::size_t j = 0; j < r; ++j) {
          float* dst = run + (c * r + i) * r + j;
          // Tap j of pixel ow reads column ow * s + j - pad_w, inside [0, W)
          // for ow in [lo, hi).
          const std::size_t lo = pad_w > j ? (pad_w - j + s - 1) / s : 0;
          const std::size_t hi = pad_w + W > j ? (pad_w + W - j + s - 1) / s : 0;
          const std::size_t t_lo = row_in ? std::clamp(lo, ow0, ow0 + n) - ow0 : n;
          const std::size_t t_hi = row_in ? std::clamp(hi, ow0 + t_lo, ow0 + n) - ow0 : n;
          for (std::size_t t = 0; t < t_lo; ++t) dst[t * patch] = 0.0f;
          if (t_lo < t_hi) {
            const float* tap = src + ((ow0 + t_lo) * s + j - pad_w);
            for (std::size_t t = t_lo; t < t_hi; ++t) dst[t * patch] = tap[(t - t_lo) * s];
          }
          for (std::size_t t = t_hi; t < n; ++t) dst[t * patch] = 0.0f;
        }
      }
    }
    p += n;
  }
}

Im2colConvF32::Im2colConvF32(const ConvDesc& desc) : desc_(desc) {
  desc.validate();
  desc.require_ungrouped("Im2colConvF32");
  patch_ = desc_.in_channels * desc_.kernel * desc_.kernel;
  k_pad_ = round_up(desc_.out_channels, 16);
}

void Im2colConvF32::set_filters(std::span<const float> weights, std::span<const float> bias) {
  assert(weights.size() >= desc_.out_channels * patch_);
  // B operand of the GEMM: patch x K (transposed weights), K padded to 16.
  wT_.reset(patch_ * k_pad_);
  wT_.fill_zero();
  for (std::size_t k = 0; k < desc_.out_channels; ++k) {
    for (std::size_t p = 0; p < patch_; ++p) {
      wT_[p * k_pad_ + k] = weights[k * patch_ + p];
    }
  }
  bias_.reset(desc_.out_channels);
  bias_.fill_zero();
  if (!bias.empty()) std::memcpy(bias_.data(), bias.data(), desc_.out_channels * sizeof(float));
}

void Im2colConvF32::execute_nchw(std::span<const float> input, std::span<float> output,
                                 ThreadPool* pool, const PostOps& post) {
  const std::size_t rows = desc_.out_height() * desc_.out_width();
  ensure_panels(panels_, pool, [&](Panel& panel) {
    panel.col.ensure(kRowBlock * patch_);
    panel.acc.ensure(kRowBlock * k_pad_);
  });
  RowEpilogue ep;
  ep.channels = desc_.out_channels;
  ep.plane = rows;
  ep.bias = bias_.data();
  ep.post = post;
  for_each_row_block(pool, desc_.batch, rows,
                     [&](std::size_t tid, std::size_t b, std::size_t p0, std::size_t p1) {
    Panel& panel = panels_[tid];
    {
      ProfileSpan span(ProfileStage::kInputTransform);
      im2col_f32(desc_, input, b, p0, p1, panel.col.data());
    }
    {
      ProfileSpan span(ProfileStage::kGemm);
      fp32_gemm(panel.col.data(), patch_, wT_.data(), k_pad_, panel.acc.data(), k_pad_, p1 - p0,
                patch_, k_pad_);
    }
    // Bias / +sum / ReLU epilogue, transposing the rows back to NCHW.
    ProfileSpan span(ProfileStage::kOutputTransform);
    store_rows(ep, panel.acc.data(), k_pad_, b, p0, p1, output.data());
  });
}

}  // namespace lowino
