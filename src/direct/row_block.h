// Single-region execution shared by the GEMM-based direct convolutions
// (Im2colConvF32, Int8DirectConv, Int8Conv1x1Conv).
//
// Like the fused LoWino path (lowino/fused.cc), every call is one static
// fork-join region (Section 4.4): the batch's output pixels are cut into
// (image x row-block) tasks, each thread takes a contiguous run of tasks, and
// per task it gathers the block's GEMM rows into its own cache-resident A
// panel, runs the GEMM serially on them and writes the epilogue for those
// rows straight into the NCHW output. pool == nullptr runs the same worker as
// (0, 1). Every output element keeps its arithmetic under any row split (the
// INT8 accumulation is exact, the FP32 GEMM's per-element FMA chain does not
// depend on the row), so threaded and serial runs are bit-identical.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/aligned_buffer.h"
#include "parallel/thread_pool.h"
#include "tensor/post_ops.h"

namespace lowino {

/// The longest row block: the per-thread panels hold this many GEMM rows.
inline constexpr std::size_t kRowBlock = 384;

/// Grows `panels` to one entry per thread of `pool` (one for nullptr) and
/// lets `size(panel)` ensure its buffers. Buffers only ever grow, so after the
/// first call on a pool (the session's pre-warm run) this allocates nothing.
template <typename Panel, typename Size>
void ensure_panels(std::vector<Panel>& panels, ThreadPool* pool, Size&& size) {
  const std::size_t threads = pool != nullptr ? pool->num_threads() : 1;
  if (panels.size() < threads) panels.resize(threads);
  for (Panel& panel : panels) size(panel);
}

/// Runs `body(tid, b, p0, p1)` for every row block [p0, p1) of every image
/// b < batch of a `rows`-pixel output plane, statically partitioned over the
/// pool in one region.
template <typename Body>
void for_each_row_block(ThreadPool* pool, std::size_t batch, std::size_t rows, Body&& body) {
  // Long blocks keep each output plane's stores sequential for longer; about
  // four tasks per thread keep small batches balanced. Lengths are multiples
  // of 48, the GEMMs' 6-row register tile times the epilogue's 16 pixels.
  const std::size_t tasks_wanted = 4 * (pool != nullptr ? pool->num_threads() : 1);
  const std::size_t len = std::clamp(round_up((batch * rows + tasks_wanted - 1) / tasks_wanted, 48),
                                     std::size_t{96}, kRowBlock);
  const std::size_t blocks = (rows + len - 1) / len;
  auto worker = [&](std::size_t tid, std::size_t nw) {
    const Range tasks = static_partition(batch * blocks, nw, tid);
    for (std::size_t t = tasks.begin; t < tasks.end; ++t) {
      const std::size_t p0 = (t % blocks) * len;
      body(tid, t / blocks, p0, std::min(rows, p0 + len));
    }
  };
  if (pool != nullptr) {
    pool->run(worker);
  } else {
    worker(0, 1);
  }
}

/// Quantize-and-transpose gather of the INT8 engines: for the n pixels at
/// src + t * step (t < n) of `channels` planes spaced `plane` elements apart,
/// dst[t * ld + c] = clamp(round_ne(src * scale) + 128, 0, 255), and 128
/// (quantized zero) for the padding channels [channels, c_fill).
void gather_channels(const float* src, std::size_t plane, std::size_t step, std::size_t n,
                     std::size_t channels, float scale, std::uint8_t* dst, std::size_t ld,
                     std::size_t c_fill);
/// u8 hand-off variant: the bytes already carry the quantization.
void gather_channels(const std::uint8_t* src, std::size_t plane, std::size_t step,
                     std::size_t n, std::size_t channels, std::uint8_t* dst, std::size_t ld,
                     std::size_t c_fill);

/// The per-channel epilogue: v = acc * dequant[k] + bias[k] (INT32
/// accumulators; FP32 ones skip the dequant), then post.sum / post.sum_u8,
/// post.relu, and for out_u8 the requant clamp(round_ne(v * requant) + 128).
struct RowEpilogue {
  std::size_t channels = 0;         ///< K
  std::size_t plane = 0;            ///< output pixels per image and channel
  const float* dequant = nullptr;   ///< [K]; read for INT32 accumulators only
  const float* bias = nullptr;      ///< [K]
  PostOps post;
  bool out_u8 = false;
  float requant = 0.0f;
};

/// Writes pixels [p0, p1) of image `b` from a row-major accumulator panel
/// (pixel p0 + i in row i, `ld` elements apart, channel k in column k; ld is
/// a multiple of 16) into the NCHW `output` (FP32, or u8 when out_u8).
void store_rows(const RowEpilogue& ep, const std::int32_t* acc, std::size_t ld, std::size_t b,
                std::size_t p0, std::size_t p1, void* output);
void store_rows(const RowEpilogue& ep, const float* acc, std::size_t ld, std::size_t b,
                std::size_t p0, std::size_t p1, void* output);

}  // namespace lowino
