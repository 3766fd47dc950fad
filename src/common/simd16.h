// 16-lane AVX-512 helpers shared by the kernels that turn channel-major rows
// into pixel-major ones and back: the direct-family gather and epilogue
// (direct/row_block.cc) and the NCHW <-> blocked layout conversion
// (tensor/pack.cc).
#pragma once

#ifdef LOWINO_COMPILE_AVX512
#include <immintrin.h>

#include <cstddef>

namespace lowino {

/// Mask of the first `n` (0..16) of 16 lanes, for tails.
inline __mmask16 first_lanes(std::size_t n) { return static_cast<__mmask16>((1u << n) - 1); }

// GCC 12's AVX-512 headers trip -Wuninitialized on the _mm512_undefined_*
// merge operands of the unmasked shuffles below (GCC PR#105593, the same
// false positive the build silences as -Wmaybe-uninitialized).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
/// In-register transpose of a 16x16 tile of 32-bit elements: afterwards
/// r[j] holds column j, element i coming from input row i.
inline void transpose16(__m512i r[16]) {
  __m512i t[16];
  for (int i = 0; i < 16; i += 2) {
    t[i] = _mm512_unpacklo_epi32(r[i], r[i + 1]);
    t[i + 1] = _mm512_unpackhi_epi32(r[i], r[i + 1]);
  }
  // r[4g + c] now holds, in 128-bit lane L, column 4L + c of rows 4g..4g+3.
  for (int g = 0; g < 16; g += 4) {
    r[g] = _mm512_unpacklo_epi64(t[g], t[g + 2]);
    r[g + 1] = _mm512_unpackhi_epi64(t[g], t[g + 2]);
    r[g + 2] = _mm512_unpacklo_epi64(t[g + 1], t[g + 3]);
    r[g + 3] = _mm512_unpackhi_epi64(t[g + 1], t[g + 3]);
  }
  // A 4x4 transpose of the 128-bit lanes finishes the job.
  for (int c = 0; c < 4; ++c) {
    const __m512i v0 = _mm512_shuffle_i32x4(r[c], r[4 + c], 0x44);
    const __m512i v1 = _mm512_shuffle_i32x4(r[c], r[4 + c], 0xEE);
    const __m512i v2 = _mm512_shuffle_i32x4(r[8 + c], r[12 + c], 0x44);
    const __m512i v3 = _mm512_shuffle_i32x4(r[8 + c], r[12 + c], 0xEE);
    t[c] = _mm512_shuffle_i32x4(v0, v2, 0x88);
    t[4 + c] = _mm512_shuffle_i32x4(v0, v2, 0xDD);
    t[8 + c] = _mm512_shuffle_i32x4(v1, v3, 0x88);
    t[12 + c] = _mm512_shuffle_i32x4(v1, v3, 0xDD);
  }
  for (int i = 0; i < 16; ++i) r[i] = t[i];
}
#pragma GCC diagnostic pop

}  // namespace lowino

#endif  // LOWINO_COMPILE_AVX512
