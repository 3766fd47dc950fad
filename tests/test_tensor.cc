// Tests for tensors, the Table-1 blocked layouts, and NCHW packing.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "parallel/thread_pool.h"
#include "tensor/conv_desc.h"
#include "tensor/layout.h"
#include "tensor/pack.h"
#include "tensor/tensor.h"

namespace lowino {
namespace {

TEST(Tensor, ShapeAndIndexing) {
  Tensor<float> t({2, 3, 4});
  EXPECT_EQ(t.size(), 24u);
  EXPECT_EQ(t.rank(), 3u);
  t.zero();
  t(1, 2, 3) = 5.0f;
  EXPECT_EQ(t.data()[1 * 12 + 2 * 4 + 3], 5.0f);
  EXPECT_EQ(t(0, 0, 0), 0.0f);
}

TEST(Tensor, CopyIsDeep) {
  Tensor<int> a({4});
  a.fill(7);
  Tensor<int> b = a;
  b(0) = 1;
  EXPECT_EQ(a(0), 7);
  EXPECT_EQ(b(1), 7);
}

TEST(ConvDesc, OutputSizesWithPadding) {
  ConvDesc d;
  d.height = d.width = 14;
  d.kernel = 3;
  d.pad = 1;
  EXPECT_EQ(d.out_height(), 14u);
  EXPECT_EQ(d.out_width(), 14u);
  d.pad = 0;
  EXPECT_EQ(d.out_height(), 12u);
}

// --- Degenerate-shape validation ---------------------------------------------
// out_height()/out_width() compute (extent + 2*pad - kernel) / stride + 1 in
// size_t: a kernel larger than the padded extent wraps to ~2^64 and stride 0
// divides by zero. validate() must reject every such shape before any caller
// reaches that arithmetic. One test per rejected shape class.

ConvDesc small_valid_desc() {
  ConvDesc d;
  d.batch = 1;
  d.in_channels = d.out_channels = 4;
  d.height = d.width = 8;
  d.kernel = 3;
  d.pad = 1;
  return d;
}

TEST(ConvDescValidate, RejectsZeroKernel) {
  ConvDesc d = small_valid_desc();
  d.kernel = 0;
  EXPECT_FALSE(d.is_valid());
  EXPECT_THROW(d.validate(), std::invalid_argument);
}

TEST(ConvDescValidate, RejectsZeroStride) {
  ConvDesc d = small_valid_desc();
  d.stride = 0;  // out_height() would divide by zero
  EXPECT_FALSE(d.is_valid());
  EXPECT_THROW(d.validate(), std::invalid_argument);
}

TEST(ConvDescValidate, RejectsZeroBatchAndChannels) {
  for (const auto mutate : {+[](ConvDesc& d) { d.batch = 0; },
                            +[](ConvDesc& d) { d.in_channels = 0; },
                            +[](ConvDesc& d) { d.out_channels = 0; }}) {
    ConvDesc d = small_valid_desc();
    mutate(d);
    EXPECT_FALSE(d.is_valid());
    EXPECT_THROW(d.validate(), std::invalid_argument);
  }
}

TEST(ConvDescValidate, RejectsPadNotBelowKernel) {
  ConvDesc d = small_valid_desc();
  d.pad = d.kernel;
  EXPECT_FALSE(d.is_valid());
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d.pad = d.kernel + 3;
  EXPECT_THROW(d.validate(), std::invalid_argument);
}

TEST(ConvDescValidate, RejectsKernelExceedingPaddedHeight) {
  ConvDesc d = small_valid_desc();
  d.pad = 0;
  d.height = d.kernel - 1;  // out_height() would wrap to ~2^64
  EXPECT_FALSE(d.is_valid());
  EXPECT_THROW(d.validate(), std::invalid_argument);
}

TEST(ConvDescValidate, RejectsKernelExceedingPaddedWidth) {
  ConvDesc d = small_valid_desc();
  d.pad = 0;
  d.width = d.kernel - 1;
  EXPECT_FALSE(d.is_valid());
  EXPECT_THROW(d.validate(), std::invalid_argument);
}

TEST(ConvDescValidate, AcceptsBoundaryShapes) {
  // kernel == padded extent: the smallest legal input, a single 1x1 output.
  ConvDesc d = small_valid_desc();
  d.height = d.width = 1;
  d.kernel = 3;
  d.pad = 1;
  EXPECT_TRUE(d.is_valid());
  EXPECT_NO_THROW(d.validate());
  EXPECT_EQ(d.out_height(), 1u);
  EXPECT_EQ(d.out_width(), 1u);
  // 1x1 kernel with zero pad is legal too (pad < kernel holds).
  ConvDesc e = small_valid_desc();
  e.kernel = 1;
  e.pad = 0;
  EXPECT_TRUE(e.is_valid());
  EXPECT_NO_THROW(e.validate());
  EXPECT_EQ(e.out_height(), 8u);
}

TEST(ConvDescValidate, ErrorMessageNamesTheShape) {
  ConvDesc d = small_valid_desc();
  d.stride = 0;
  try {
    d.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("stride"), std::string::npos) << e.what();
  }
}

TEST(ConvDesc, ChannelPaddingTo64) {
  ConvDesc d;
  d.in_channels = 1;
  d.out_channels = 100;
  EXPECT_EQ(d.padded_in_channels(), 64u);
  EXPECT_EQ(d.padded_out_channels(), 128u);
  d.in_channels = 256;
  EXPECT_EQ(d.padded_in_channels(), 256u);
}

TEST(WinogradGeometry, TileCounts) {
  ConvDesc d;
  d.batch = 2;
  d.height = d.width = 14;
  d.kernel = 3;
  d.pad = 1;
  const WinogradGeometry g2(d, 2);
  EXPECT_EQ(g2.alpha, 4u);
  EXPECT_EQ(g2.tiles_h, 7u);
  EXPECT_EQ(g2.total_tiles, 2u * 49u);
  EXPECT_EQ(g2.t_elems, 16u);
  const WinogradGeometry g4(d, 4);
  EXPECT_EQ(g4.alpha, 6u);
  EXPECT_EQ(g4.tiles_h, 4u);  // ceil(14/4)
  EXPECT_EQ(g4.t_elems, 36u);
}

TEST(WinogradGeometry, ComplexityReduction) {
  // F(4x4,3x3) reduces MACs by (m*r)^2 / alpha^2 = 144/36 = 4x per output.
  ConvDesc d;
  d.batch = 1;
  d.in_channels = d.out_channels = 64;
  d.height = d.width = 16;
  const WinogradGeometry g(d, 4);
  const double direct = d.direct_macs();
  const double wino = g.winograd_macs(d);
  EXPECT_NEAR(direct / wino, 4.0, 0.01);
}

class LayoutRoundTrip : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(LayoutRoundTrip, PackUnpackNCHW) {
  const auto [b, c, h, w] = GetParam();
  Rng rng(b * 1000 + c * 100 + h * 10 + w);
  Tensor<float> src({static_cast<std::size_t>(b), static_cast<std::size_t>(c),
                     static_cast<std::size_t>(h), static_cast<std::size_t>(w)});
  for (auto& v : src.span()) v = rng.uniform(-1.0f, 1.0f);

  const BlockedActLayout layout(b, c, h, w);
  AlignedBuffer<float> blocked(layout.size());
  pack_nchw_to_blocked(src.span(), b, c, h, w, blocked.span());

  Tensor<float> dst({static_cast<std::size_t>(b), static_cast<std::size_t>(c),
                     static_cast<std::size_t>(h), static_cast<std::size_t>(w)});
  unpack_blocked_to_nchw(blocked.span(), b, c, h, w, dst.span());
  for (std::size_t i = 0; i < src.size(); ++i) {
    ASSERT_EQ(src.data()[i], dst.data()[i]) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, LayoutRoundTrip,
                         ::testing::Values(std::make_tuple(1, 64, 4, 4),
                                           std::make_tuple(2, 128, 7, 5),
                                           std::make_tuple(1, 1, 8, 8),
                                           std::make_tuple(3, 100, 3, 3),
                                           std::make_tuple(1, 65, 2, 2),
                                           std::make_tuple(2, 192, 6, 6)));

TEST(BlockedActLayout, PaddingChannelsAreZero) {
  const int b = 1, c = 70, h = 2, w = 2;
  Tensor<float> src({1, 70, 2, 2});
  src.fill(1.0f);
  const BlockedActLayout layout(b, c, h, w);
  AlignedBuffer<float> blocked(layout.size());
  pack_nchw_to_blocked(src.span(), b, c, h, w, blocked.span());
  // channels 70..127 must be zero-filled
  for (std::size_t p = 0; p < 4; ++p) {
    const float* blk = blocked.data() + layout.offset(0, 1, p / 2, p % 2);
    for (std::size_t ci = 0; ci < kChanBlock; ++ci) {
      const std::size_t chan = kChanBlock + ci;
      EXPECT_EQ(blk[ci], chan < 70 ? 1.0f : 0.0f);
    }
  }
}

TEST(PackWithThreadPool, MatchesSerial) {
  ThreadPool pool(4);
  const int b = 2, c = 130, h = 5, w = 7;
  Rng rng(99);
  Tensor<float> src({2, 130, 5, 7});
  for (auto& v : src.span()) v = rng.uniform(-1.0f, 1.0f);
  const BlockedActLayout layout(b, c, h, w);
  AlignedBuffer<float> serial(layout.size()), parallel(layout.size());
  pack_nchw_to_blocked(src.span(), b, c, h, w, serial.span());
  pack_nchw_to_blocked(src.span(), b, c, h, w, parallel.span(), &pool);
  for (std::size_t i = 0; i < layout.size(); ++i) {
    ASSERT_EQ(serial[i], parallel[i]);
  }
}

// Layout conversion sweep: C x plane x batch x pool. The vector kernels, the
// scalar fallback (forced through the CPU-feature override) and a test-local
// reference must agree bit for bit. f32 inputs are random bit patterns (NaN
// payloads, -0.0, denormals included), since the conversion only moves data.
using ConversionCase = std::tuple<int, std::pair<int, int>, int, int>;  // C, HxW, batch, threads

class LayoutConversion : public ::testing::TestWithParam<ConversionCase> {
 protected:
  template <typename T>
  void check(T pad) {
    const auto [c_, hw_, b_, threads] = GetParam();
    const std::size_t c = c_, h = hw_.first, w = hw_.second, b = b_, plane = h * w;
    const std::size_t n = b * c * plane;
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);

    Rng rng(n * 131 + c);
    std::vector<T> src(n);
    for (T& v : src) {
      const std::uint64_t bits = rng.next_u64();
      std::memcpy(&v, &bits, sizeof(T));
    }
    // Reference: value (b, c, p) at block cb = c / 64, lane c % 64.
    const BlockedActLayout layout(b, c, h, w);
    std::vector<T> ref(layout.size(), pad);
    for (std::size_t bi = 0; bi < b; ++bi) {
      for (std::size_t ci = 0; ci < c; ++ci) {
        for (std::size_t p = 0; p < plane; ++p) {
          ref[layout.offset(bi, ci / kChanBlock, p / w, p % w) + ci % kChanBlock] =
              src[(bi * c + ci) * plane + p];
        }
      }
    }

    const auto same = [](const T* a, const T* b, std::size_t count) {
      return std::memcmp(a, b, count * sizeof(T)) == 0;
    };
    const auto run_pack = [&](const char* path) {
      std::vector<T> blocked(layout.size());
      std::memset(blocked.data(), 0xCD, blocked.size() * sizeof(T));  // every lane is written
      if constexpr (std::is_same_v<T, float>) {
        pack_nchw_to_blocked(src, b, c, h, w, blocked, pool.get());
      } else {
        pack_nchw_u8_to_blocked(src, b, c, h, w, blocked, pool.get());
      }
      EXPECT_TRUE(same(blocked.data(), ref.data(), ref.size())) << path << " pack";
      for (std::size_t bi = 0; bi < b; ++bi) {
        for (std::size_t ci = c; ci < layout.chan_blocks * kChanBlock; ++ci) {
          for (std::size_t p = 0; p < plane; ++p) {
            const T got = blocked[layout.offset(bi, ci / kChanBlock, p / w, p % w) +
                                  ci % kChanBlock];
            ASSERT_TRUE(same(&got, &pad, 1)) << path << " padding lane " << ci << " pixel " << p;
          }
        }
      }
    };
    const auto run_unpack = [&](const char* path) {
      // Guard regions before and after the NCHW output must stay untouched.
      constexpr std::size_t kGuard = 97;
      std::vector<T> out(kGuard + n + kGuard);
      std::memset(out.data(), 0xA5, out.size() * sizeof(T));
      const std::vector<T> canary(kGuard, out.front());
      const std::span<T> dst(out.data() + kGuard, n);
      if constexpr (std::is_same_v<T, float>) {
        unpack_blocked_to_nchw(ref, b, c, h, w, dst, pool.get());
      } else {
        unpack_blocked_u8_to_nchw(ref, b, c, h, w, dst, pool.get());
      }
      EXPECT_TRUE(same(dst.data(), src.data(), n)) << path << " unpack";
      EXPECT_TRUE(same(out.data(), canary.data(), kGuard)) << path << " guard before";
      EXPECT_TRUE(same(out.data() + kGuard + n, canary.data(), kGuard)) << path << " guard after";
    };

    run_pack("vector");
    run_unpack("vector");
    const CpuFeatures scalar;
    override_cpu_features_for_test(&scalar);
    run_pack("scalar");
    run_unpack("scalar");
    override_cpu_features_for_test(nullptr);
  }
};

TEST_P(LayoutConversion, F32) { check<float>(0.0f); }
TEST_P(LayoutConversion, U8) { check<std::uint8_t>(128); }

std::string conversion_case_name(const ::testing::TestParamInfo<ConversionCase>& info) {
  const auto [c, hw, b, threads] = info.param;
  return "c" + std::to_string(c) + "_" + std::to_string(hw.first) + "x" +
         std::to_string(hw.second) + "_b" + std::to_string(b) + "_t" + std::to_string(threads);
}

// 320x4 is longer than one pixel-range task; 33x31 leaves 16- and 64-pixel
// tails; C = 1, 40, 72 and 130 leave partly or wholly padded 16-channel groups.
INSTANTIATE_TEST_SUITE_P(
    Sweep, LayoutConversion,
    ::testing::Combine(::testing::Values(1, 40, 64, 72, 130),
                       ::testing::Values(std::make_pair(1, 1), std::make_pair(7, 7),
                                         std::make_pair(13, 13), std::make_pair(33, 31),
                                         std::make_pair(320, 4)),
                       ::testing::Values(1, 3), ::testing::Values(0, 1, 3, 4)),
    conversion_case_name);

TEST(TransformedInputLayout, OffsetsAreUniqueAndInBounds) {
  const TransformedInputLayout l(/*total_tiles=*/10, /*padded_c=*/128, /*t=*/16,
                                 /*nblk=*/4, /*cblk=*/64);
  EXPECT_EQ(l.n_blocks, 3u);
  EXPECT_EQ(l.c_blocks, 2u);
  std::vector<char> seen(l.size(), 0);
  for (std::size_t n = 0; n < 10; ++n) {
    for (std::size_t t = 0; t < 16; ++t) {
      for (std::size_t c = 0; c < 128; ++c) {
        const std::size_t off = l.offset(n, t, c);
        ASSERT_LT(off, l.size());
        ASSERT_EQ(seen[off], 0);
        seen[off] = 1;
      }
    }
  }
}

TEST(TransformedInputLayout, CblkInnermostContiguous) {
  const TransformedInputLayout l(8, 128, 16, 4, 128);
  // consecutive channels of one (n, t) must be adjacent — required for the
  // 64-byte NT stores in the input transform.
  for (std::size_t c = 0; c + 1 < 128; ++c) {
    EXPECT_EQ(l.offset(3, 5, c) + 1, l.offset(3, 5, c + 1));
  }
}

TEST(PackedFilterLayout, VpdpbusdGrouping) {
  const PackedFilterLayout l(/*padded_c=*/64, /*padded_k=*/64, /*t=*/4, /*cblk=*/64,
                             /*kblk=*/64);
  // Within one c4 group, the 4 channel values of output channel k are
  // consecutive bytes — the vpdpbusd operand convention (Figure 1).
  for (std::size_t cr = 0; cr + 1 < 4; ++cr) {
    EXPECT_EQ(l.offset(0, cr, 7) + 1, l.offset(0, cr + 1, 7));
  }
  // Next output channel starts 4 bytes later.
  EXPECT_EQ(l.offset(0, 0, 7) + 4, l.offset(0, 0, 8));
}

TEST(PackedFilterLayout, OffsetsAreUniqueAndInBounds) {
  const PackedFilterLayout l(128, 128, 4, 64, 64);
  std::vector<char> seen(l.size(), 0);
  for (std::size_t t = 0; t < 4; ++t) {
    for (std::size_t c = 0; c < 128; ++c) {
      for (std::size_t k = 0; k < 128; ++k) {
        const std::size_t off = l.offset(t, c, k);
        ASSERT_LT(off, l.size());
        ASSERT_EQ(seen[off], 0);
        seen[off] = 1;
      }
    }
  }
}

TEST(TransformedOutputLayout, TileBlockIsConsecutive) {
  const TransformedOutputLayout l(/*padded_k=*/128, /*tiles=*/20, /*t=*/16);
  // For a fixed tile n and k-block, all T x 64 values are consecutive —
  // the property that makes the output transform's reads sequential.
  const std::size_t base = l.offset(5, 0, 64);
  for (std::size_t t = 0; t < 16; ++t) {
    for (std::size_t ki = 0; ki < 64; ++ki) {
      EXPECT_EQ(l.offset(5, t, 64 + ki), base + t * 64 + ki);
    }
  }
}

TEST(TransformedOutputLayout, SixteenLaneGroupsAre64ByteAligned) {
  const TransformedOutputLayout l(256, 33, 36);
  for (std::size_t k = 0; k < 256; k += 16) {
    EXPECT_EQ((l.offset(7, 11, k) * sizeof(std::int32_t)) % 64, 0u);
  }
}

}  // namespace
}  // namespace lowino
