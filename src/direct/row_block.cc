#include "direct/row_block.h"

#include <cmath>
#include <type_traits>

#include "common/cpu_features.h"
#include "common/saturate.h"
#include "common/simd16.h"

namespace lowino {
namespace {

/// Dequant + bias of one accumulator. The INT32 form is one fused
/// multiply-add, the rounding the vector path (and the compiler's contraction
/// of `acc * dq + bias`) produces.
inline float finish(const RowEpilogue& ep, std::size_t k, float acc) { return acc + ep.bias[k]; }
inline float finish(const RowEpilogue& ep, std::size_t k, std::int32_t acc) {
  return std::fma(static_cast<float>(acc), ep.dequant[k], ep.bias[k]);
}

inline std::uint8_t requantize(float v, float scale) {
  const std::int32_t q = round_nearest_even(v * scale) + 128;
  return static_cast<std::uint8_t>(std::clamp(q, 0, 255));
}

template <typename Acc>
void store_rows_scalar(const RowEpilogue& ep, const Acc* acc, std::size_t ld, std::size_t b,
                       std::size_t p0, std::size_t p1, void* output) {
  const PostOps& post = ep.post;
  for (std::size_t k = 0; k < ep.channels; ++k) {
    const std::size_t base = (b * ep.channels + k) * ep.plane;
    for (std::size_t p = p0; p < p1; ++p) {
      float v = finish(ep, k, acc[(p - p0) * ld + k]);
      if (post.sum != nullptr) v += post.sum[base + p];
      if (post.sum_u8 != nullptr) {
        v = std::fma(static_cast<float>(static_cast<std::int32_t>(post.sum_u8[base + p]) - 128),
                     post.sum_u8_inv_scale, v);
      }
      if (post.relu) v = std::max(0.0f, v);
      if (ep.out_u8) {
        static_cast<std::uint8_t*>(output)[base + p] = requantize(v, ep.requant);
      } else {
        static_cast<float*>(output)[base + p] = v;
      }
    }
  }
}

template <typename In>
void gather_scalar(const In* src, std::size_t plane, std::size_t step, std::size_t n,
                   std::size_t channels, float scale, std::uint8_t* dst, std::size_t ld,
                   std::size_t c_fill) {
  for (std::size_t c = 0; c < channels; ++c) {
    const In* s = src + c * plane;
    for (std::size_t t = 0; t < n; ++t) {
      if constexpr (std::is_same_v<In, float>) {
        dst[t * ld + c] = requantize(s[t * step], scale);
      } else {
        dst[t * ld + c] = s[t * step];
      }
    }
  }
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t c = channels; c < c_fill; ++c) dst[t * ld + c] = 128;
  }
}

#ifdef LOWINO_COMPILE_AVX512

/// clamp(round_ne(v) + 128, 0, 255) per lane; cvtps rounds to nearest-even
/// like round_nearest_even, and both map out-of-range values to INT_MIN.
inline __m512i shift128_saturate(__m512 v) {
  const __m512i q = _mm512_add_epi32(_mm512_cvtps_epi32(v), _mm512_set1_epi32(128));
  return _mm512_min_epi32(_mm512_max_epi32(q, _mm512_setzero_si512()), _mm512_set1_epi32(255));
}

/// Stores 16-pixel groups: a 16x16 transpose turns 16 panel rows into one
/// vector per channel, whose epilogue then runs over 16 contiguous pixels.
template <typename Acc>
void store_rows_avx512(const RowEpilogue& ep, const Acc* acc, std::size_t ld, std::size_t b,
                       std::size_t p0, std::size_t p1, void* output) {
  const PostOps& post = ep.post;
  const __m512 zero = _mm512_setzero_ps();
  const __m512 requant = _mm512_set1_ps(ep.requant);
  const __m512 res8_inv = _mm512_set1_ps(post.sum_u8_inv_scale);
  for (std::size_t k0 = 0; k0 < ep.channels; k0 += 16) {
    for (std::size_t p = p0; p < p1; p += 16) {
      const std::size_t n = std::min<std::size_t>(16, p1 - p);
      const __mmask16 m = first_lanes(n);
      __m512i t[16];
      for (std::size_t i = 0; i < 16; ++i) {
        t[i] = i < n ? _mm512_loadu_si512(acc + (p - p0 + i) * ld + k0)
                     : _mm512_setzero_si512();
      }
      transpose16(t);
      const std::size_t kn = std::min<std::size_t>(16, ep.channels - k0);
      for (std::size_t j = 0; j < kn; ++j) {
        const std::size_t k = k0 + j;
        const std::size_t off = (b * ep.channels + k) * ep.plane + p;
        __m512 v;
        if constexpr (std::is_same_v<Acc, float>) {
          v = _mm512_add_ps(_mm512_castsi512_ps(t[j]), _mm512_set1_ps(ep.bias[k]));
        } else {
          v = _mm512_fmadd_ps(_mm512_cvtepi32_ps(t[j]), _mm512_set1_ps(ep.dequant[k]),
                              _mm512_set1_ps(ep.bias[k]));
        }
        if (post.sum != nullptr) v = _mm512_add_ps(v, _mm512_maskz_loadu_ps(m, post.sum + off));
        if (post.sum_u8 != nullptr) {
          const __m512i r8 = _mm512_sub_epi32(
              _mm512_cvtepu8_epi32(_mm_maskz_loadu_epi8(m, post.sum_u8 + off)),
              _mm512_set1_epi32(128));
          v = _mm512_fmadd_ps(_mm512_cvtepi32_ps(r8), res8_inv, v);
        }
        // max(v, 0) returns 0 for NaN and -0, exactly like std::max(0.0f, v).
        if (post.relu) v = _mm512_max_ps(v, zero);
        if (ep.out_u8) {
          _mm_mask_storeu_epi8(static_cast<std::uint8_t*>(output) + off, m,
                               _mm512_cvtepi32_epi8(shift128_saturate(_mm512_mul_ps(v, requant))));
        } else {
          _mm512_mask_storeu_ps(static_cast<float*>(output) + off, m, v);
        }
      }
    }
  }
}

/// 16 pixels x 16 channels at a time: one (masked) load per channel, the
/// quantization on 16 pixels, a transpose, one 16-byte store per pixel.
template <typename In>
void gather_avx512(const In* src, std::size_t plane, std::size_t step, std::size_t n,
                   std::size_t channels, float scale, std::uint8_t* dst, std::size_t ld,
                   std::size_t c_fill) {
  const __m512 vscale = _mm512_set1_ps(scale);
  alignas(64) In strided[16];
  for (std::size_t t0 = 0; t0 < n; t0 += 16) {
    const std::size_t nt = std::min<std::size_t>(16, n - t0);
    const __mmask16 m = first_lanes(nt);
    for (std::size_t c0 = 0; c0 < c_fill; c0 += 16) {
      __m512i v[16];
      for (std::size_t i = 0; i < 16; ++i) {
        if (c0 + i >= channels) {
          v[i] = _mm512_set1_epi32(128);
          continue;
        }
        const In* s = src + (c0 + i) * plane + t0 * step;
        if (step != 1) {
          for (std::size_t t = 0; t < nt; ++t) strided[t] = s[t * step];
          s = strided;
        }
        if constexpr (std::is_same_v<In, float>) {
          v[i] = shift128_saturate(_mm512_mul_ps(_mm512_maskz_loadu_ps(m, s), vscale));
        } else {
          v[i] = _mm512_cvtepu8_epi32(_mm_maskz_loadu_epi8(m, s));
        }
      }
      transpose16(v);
      const __mmask16 cm = first_lanes(std::min<std::size_t>(16, c_fill - c0));
      for (std::size_t t = 0; t < nt; ++t) {
        _mm_mask_storeu_epi8(dst + (t0 + t) * ld + c0, cm, _mm512_cvtepi32_epi8(v[t]));
      }
    }
  }
}

#endif  // LOWINO_COMPILE_AVX512

template <typename Acc>
void store_rows_impl(const RowEpilogue& ep, const Acc* acc, std::size_t ld, std::size_t b,
                     std::size_t p0, std::size_t p1, void* output) {
#ifdef LOWINO_COMPILE_AVX512
  if (cpu_features().has_avx512_kernels()) {
    store_rows_avx512(ep, acc, ld, b, p0, p1, output);
    return;
  }
#endif
  store_rows_scalar(ep, acc, ld, b, p0, p1, output);
}

template <typename In>
void gather_impl(const In* src, std::size_t plane, std::size_t step, std::size_t n,
                 std::size_t channels, float scale, std::uint8_t* dst, std::size_t ld,
                 std::size_t c_fill) {
#ifdef LOWINO_COMPILE_AVX512
  if (cpu_features().has_avx512_kernels()) {
    gather_avx512(src, plane, step, n, channels, scale, dst, ld, c_fill);
    return;
  }
#endif
  gather_scalar(src, plane, step, n, channels, scale, dst, ld, c_fill);
}

}  // namespace

void gather_channels(const float* src, std::size_t plane, std::size_t step, std::size_t n,
                     std::size_t channels, float scale, std::uint8_t* dst, std::size_t ld,
                     std::size_t c_fill) {
  gather_impl(src, plane, step, n, channels, scale, dst, ld, c_fill);
}

void gather_channels(const std::uint8_t* src, std::size_t plane, std::size_t step,
                     std::size_t n, std::size_t channels, std::uint8_t* dst, std::size_t ld,
                     std::size_t c_fill) {
  gather_impl(src, plane, step, n, channels, 0.0f, dst, ld, c_fill);
}

void store_rows(const RowEpilogue& ep, const std::int32_t* acc, std::size_t ld, std::size_t b,
                std::size_t p0, std::size_t p1, void* output) {
  store_rows_impl(ep, acc, ld, b, p0, p1, output);
}

void store_rows(const RowEpilogue& ep, const float* acc, std::size_t ld, std::size_t b,
                std::size_t p0, std::size_t p1, void* output) {
  store_rows_impl(ep, acc, ld, b, p0, p1, output);
}

}  // namespace lowino
