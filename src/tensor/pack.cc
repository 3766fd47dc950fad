#include "tensor/pack.h"

#include <algorithm>
#include <cassert>

#include "common/cpu_features.h"
#include "common/simd16.h"
#include "parallel/thread_pool.h"

namespace lowino {
namespace {

/// Pixel ranges are multiples of one u8 vector step (64 pixels); a task moves
/// at most kMaxTaskPixels pixels of one 64-channel block (128 KB of f32).
constexpr std::size_t kPixelStep = 64;
constexpr std::size_t kMaxTaskPixels = 512;

/// Runs `fn(b, cb, p0, p1)` over every (image, 64-channel block, pixel range)
/// task in one parallel_for. Planes are cut finer than kMaxTaskPixels when
/// there are fewer (image, block) pairs than pool threads, so batch-1 layers
/// with one or two channel blocks still keep every thread busy.
template <typename Fn>
void for_each_task(const BlockedActLayout& layout, ThreadPool* pool, Fn&& fn) {
  const std::size_t hw = layout.height * layout.width;
  const std::size_t planes = layout.batch * layout.chan_blocks;
  if (hw == 0 || planes == 0) return;
  const std::size_t threads = pool != nullptr ? pool->num_threads() : 1;
  const std::size_t ranges = std::max(ceil_div(hw, kMaxTaskPixels), ceil_div(threads, planes));
  const std::size_t range = round_up_multiple(ceil_div(hw, ranges), kPixelStep);
  const std::size_t per_plane = ceil_div(hw, range);
  const auto run = [&](std::size_t begin, std::size_t end) {
    for (std::size_t task = begin; task < end; ++task) {
      const std::size_t plane = task / per_plane;
      const std::size_t p0 = (task % per_plane) * range;
      fn(plane / layout.chan_blocks, plane % layout.chan_blocks, p0, std::min(hw, p0 + range));
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(planes * per_plane, run);
  } else {
    run(0, planes * per_plane);
  }
}

// Kernels over one task: `nchw` points at channel cb*64 of image b (plane
// stride `hw`), `blocked` at the (b, cb) block (64 values per pixel), and
// `nc` (1..64) counts the block's real channels.

template <typename T>
void pack_scalar(const T* nchw, T* blocked, std::size_t hw, std::size_t nc, std::size_t p0,
                 std::size_t p1, T pad) {
  for (std::size_t p = p0; p < p1; ++p) {
    T* out = blocked + p * kChanBlock;
    for (std::size_t ci = 0; ci < kChanBlock; ++ci) out[ci] = ci < nc ? nchw[ci * hw + p] : pad;
  }
}

template <typename T>
void unpack_scalar(const T* blocked, T* nchw, std::size_t hw, std::size_t nc, std::size_t p0,
                   std::size_t p1) {
  for (std::size_t ci = 0; ci < nc; ++ci) {
    T* out = nchw + ci * hw;
    for (std::size_t p = p0; p < p1; ++p) out[p] = blocked[p * kChanBlock + ci];
  }
}

#ifdef LOWINO_COMPILE_AVX512

/// Mask of the first `n` (0..64) of 64 byte lanes.
inline __mmask64 first_bytes(std::size_t n) {
  return n >= 64 ? ~__mmask64{0} : (__mmask64{1} << n) - 1;
}

// Vector bodies: 16 channels x 16 pixels per transpose. Channel rows of the
// NCHW plane move as whole 64-byte vectors (16 f32 or 64 u8 pixels, masked at
// the range tail); pixel blocks move 16 channels (64 or 16 bytes) at a time.

void pack_avx512(const float* nchw, float* blocked, std::size_t hw, std::size_t nc,
                 std::size_t p0, std::size_t p1, float pad) {
  const __m512i pad_row = _mm512_castps_si512(_mm512_set1_ps(pad));
  for (std::size_t c0 = 0; c0 < kChanBlock; c0 += 16) {
    float* out = blocked + c0;
    for (std::size_t p = p0; p < p1; p += 16) {
      const std::size_t n = std::min<std::size_t>(16, p1 - p);
      const __mmask16 m = first_lanes(n);
      __m512i r[16];
      for (std::size_t i = 0; i < 16; ++i) {
        r[i] = c0 + i < nc ? _mm512_maskz_loadu_epi32(m, nchw + (c0 + i) * hw + p) : pad_row;
      }
      transpose16(r);
      for (std::size_t j = 0; j < n; ++j) _mm512_storeu_si512(out + (p + j) * kChanBlock, r[j]);
    }
  }
}

void unpack_avx512(const float* blocked, float* nchw, std::size_t hw, std::size_t nc,
                   std::size_t p0, std::size_t p1) {
  for (std::size_t c0 = 0; c0 < nc; c0 += 16) {
    const float* in = blocked + c0;
    const std::size_t kn = std::min<std::size_t>(16, nc - c0);
    for (std::size_t p = p0; p < p1; p += 16) {
      const std::size_t n = std::min<std::size_t>(16, p1 - p);
      __m512i r[16];
      for (std::size_t j = 0; j < 16; ++j) {
        r[j] = j < n ? _mm512_loadu_si512(in + (p + j) * kChanBlock) : _mm512_setzero_si512();
      }
      transpose16(r);
      const __mmask16 m = first_lanes(n);
      for (std::size_t i = 0; i < kn; ++i) {
        _mm512_mask_storeu_epi32(nchw + (c0 + i) * hw + p, m, r[i]);
      }
    }
  }
}

/// Quarter Q (pixels 16Q..16Q+15) of 16 64-pixel u8 channel rows, widened,
/// transposed and narrowed into 16-byte pixel-block pieces.
template <int Q>
void pack_u8_quarter(const __m512i rows[16], std::size_t n, std::uint8_t* out) {
  __m512i r[16];
  for (std::size_t i = 0; i < 16; ++i) {
    r[i] = _mm512_cvtepu8_epi32(_mm512_extracti32x4_epi32(rows[i], Q));
  }
  transpose16(r);
  for (std::size_t j = 0; j < std::min<std::size_t>(16, n - 16 * Q); ++j) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + (16 * Q + j) * kChanBlock),
                     _mm512_cvtepi32_epi8(r[j]));
  }
}

/// The inverse: 16-byte pixel-block pieces of pixels 16Q.. into quarter Q
/// of the 16 channel rows.
template <int Q>
void unpack_u8_quarter(const std::uint8_t* in, std::size_t n, __m512i rows[16]) {
  __m512i r[16];
  for (std::size_t j = 0; j < 16; ++j) {
    r[j] = 16 * Q + j < n ? _mm512_cvtepu8_epi32(_mm_loadu_si128(
                                reinterpret_cast<const __m128i*>(in + (16 * Q + j) * kChanBlock)))
                          : _mm512_setzero_si512();
  }
  transpose16(r);
  for (std::size_t i = 0; i < 16; ++i) {
    rows[i] = _mm512_inserti32x4(rows[i], _mm512_cvtepi32_epi8(r[i]), Q);
  }
}

void pack_avx512(const std::uint8_t* nchw, std::uint8_t* blocked, std::size_t hw,
                 std::size_t nc, std::size_t p0, std::size_t p1, std::uint8_t pad) {
  const __m512i pad_row = _mm512_set1_epi8(static_cast<char>(pad));
  for (std::size_t c0 = 0; c0 < kChanBlock; c0 += 16) {
    std::uint8_t* out = blocked + c0;
    for (std::size_t p = p0; p < p1; p += 64) {
      const std::size_t n = std::min<std::size_t>(64, p1 - p);
      const __mmask64 m = first_bytes(n);
      __m512i rows[16];
      for (std::size_t i = 0; i < 16; ++i) {
        rows[i] = c0 + i < nc ? _mm512_maskz_loadu_epi8(m, nchw + (c0 + i) * hw + p) : pad_row;
      }
      std::uint8_t* o = out + p * kChanBlock;
      pack_u8_quarter<0>(rows, n, o);
      if (n > 16) pack_u8_quarter<1>(rows, n, o);
      if (n > 32) pack_u8_quarter<2>(rows, n, o);
      if (n > 48) pack_u8_quarter<3>(rows, n, o);
    }
  }
}

void unpack_avx512(const std::uint8_t* blocked, std::uint8_t* nchw, std::size_t hw,
                   std::size_t nc, std::size_t p0, std::size_t p1) {
  for (std::size_t c0 = 0; c0 < nc; c0 += 16) {
    const std::size_t kn = std::min<std::size_t>(16, nc - c0);
    for (std::size_t p = p0; p < p1; p += 64) {
      const std::size_t n = std::min<std::size_t>(64, p1 - p);
      const std::uint8_t* in = blocked + p * kChanBlock + c0;
      __m512i rows[16];
      for (std::size_t i = 0; i < 16; ++i) rows[i] = _mm512_setzero_si512();
      unpack_u8_quarter<0>(in, n, rows);
      if (n > 16) unpack_u8_quarter<1>(in, n, rows);
      if (n > 32) unpack_u8_quarter<2>(in, n, rows);
      if (n > 48) unpack_u8_quarter<3>(in, n, rows);
      const __mmask64 m = first_bytes(n);
      for (std::size_t i = 0; i < kn; ++i) {
        _mm512_mask_storeu_epi8(nchw + (c0 + i) * hw + p, m, rows[i]);
      }
    }
  }
}

#endif  // LOWINO_COMPILE_AVX512

template <typename T>
void pack_impl(std::span<const T> src, std::size_t batch, std::size_t channels,
               std::size_t height, std::size_t width, std::span<T> dst, T pad,
               ThreadPool* pool) {
  const BlockedActLayout layout(batch, channels, height, width);
  assert(src.size() >= batch * channels * height * width);
  assert(dst.size() >= layout.size());
  const std::size_t hw = height * width;
  for_each_task(layout, pool, [&](std::size_t b, std::size_t cb, std::size_t p0, std::size_t p1) {
    const T* nchw = src.data() + (b * channels + cb * kChanBlock) * hw;
    T* blocked = dst.data() + layout.offset(b, cb, 0, 0);
    const std::size_t nc = std::min(kChanBlock, channels - cb * kChanBlock);
#ifdef LOWINO_COMPILE_AVX512
    if (cpu_features().has_avx512_kernels()) {
      pack_avx512(nchw, blocked, hw, nc, p0, p1, pad);
      return;
    }
#endif
    pack_scalar(nchw, blocked, hw, nc, p0, p1, pad);
  });
}

template <typename T>
void unpack_impl(std::span<const T> src, std::size_t batch, std::size_t channels,
                 std::size_t height, std::size_t width, std::span<T> dst, ThreadPool* pool) {
  const BlockedActLayout layout(batch, channels, height, width);
  assert(src.size() >= layout.size());
  assert(dst.size() >= batch * channels * height * width);
  const std::size_t hw = height * width;
  for_each_task(layout, pool, [&](std::size_t b, std::size_t cb, std::size_t p0, std::size_t p1) {
    const T* blocked = src.data() + layout.offset(b, cb, 0, 0);
    T* nchw = dst.data() + (b * channels + cb * kChanBlock) * hw;
    const std::size_t nc = std::min(kChanBlock, channels - cb * kChanBlock);
#ifdef LOWINO_COMPILE_AVX512
    if (cpu_features().has_avx512_kernels()) {
      unpack_avx512(blocked, nchw, hw, nc, p0, p1);
      return;
    }
#endif
    unpack_scalar(blocked, nchw, hw, nc, p0, p1);
  });
}

}  // namespace

void pack_nchw_to_blocked(std::span<const float> src, std::size_t batch, std::size_t channels,
                          std::size_t height, std::size_t width, std::span<float> dst,
                          ThreadPool* pool) {
  pack_impl<float>(src, batch, channels, height, width, dst, 0.0f, pool);
}

void unpack_blocked_to_nchw(std::span<const float> src, std::size_t batch, std::size_t channels,
                            std::size_t height, std::size_t width, std::span<float> dst,
                            ThreadPool* pool) {
  unpack_impl<float>(src, batch, channels, height, width, dst, pool);
}

void pack_nchw_u8_to_blocked(std::span<const std::uint8_t> src, std::size_t batch,
                             std::size_t channels, std::size_t height, std::size_t width,
                             std::span<std::uint8_t> dst, ThreadPool* pool) {
  // Padding byte 128 == quantized zero of the +128 zero-point encoding.
  pack_impl<std::uint8_t>(src, batch, channels, height, width, dst, std::uint8_t{128}, pool);
}

void unpack_blocked_u8_to_nchw(std::span<const std::uint8_t> src, std::size_t batch,
                               std::size_t channels, std::size_t height, std::size_t width,
                               std::span<std::uint8_t> dst, ThreadPool* pool) {
  unpack_impl<std::uint8_t>(src, batch, channels, height, width, dst, pool);
}

}  // namespace lowino
