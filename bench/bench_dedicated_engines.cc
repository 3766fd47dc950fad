// Dedicated-engine shoot-out: the specialized INT8 1x1 and depthwise engines
// against the generic alternatives on MobileNet-family layer shapes.
//
// Pointwise rows compare Int8Conv1x1Conv (pure blocked VNNI GEMM, no im2col
// indexing) against Int8DirectConv (implicit im2col) on the SAME quantization
// scheme and GEMM substrate — the speedup column isolates the gather cost.
// Depthwise rows compare Int8DepthwiseConv against the FP32 scalar grouped
// reference (the fallback a session without the dedicated engine would use;
// no GEMM-shaped engine covers groups == C).
// Zoo rows run the session-zoo layers of the GEMM-based direct engines (the
// FP32 stem, int8_1x1, int8_direct) once on the pool and once with
// pool = nullptr; "pool gain" above 1 means the fork-join pays for itself.
//
// Env: LOWINO_BENCH_BATCH (default 16), LOWINO_BENCH_BUDGET_MS.
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "direct/direct_1x1.h"
#include "direct/direct_depthwise.h"
#include "direct/direct_f32.h"
#include "direct/direct_int8.h"
#include "parallel/thread_pool.h"
#include "quant/quantize.h"

namespace lowino {
namespace {

ConvDesc make_desc(std::size_t c, std::size_t k, std::size_t hw, std::size_t r,
                   std::size_t stride, std::size_t groups, std::size_t batch) {
  ConvDesc d;
  d.batch = batch;
  d.in_channels = c;
  d.out_channels = k;
  d.height = d.width = hw;
  d.kernel = r;
  d.pad = r / 2;
  d.stride = stride;
  d.groups = groups;
  return d;
}

/// FP32 scalar grouped direct convolution — the engine-less fallback path.
void fp32_grouped_direct(const ConvDesc& d, const bench::LayerData& data,
                         std::vector<float>& out) {
  const std::size_t CG = d.group_in_channels(), KG = d.out_channels / d.groups;
  const std::size_t OH = d.out_height(), OW = d.out_width();
  for (std::size_t b = 0; b < d.batch; ++b) {
    for (std::size_t k = 0; k < d.out_channels; ++k) {
      const std::size_t c0 = (k / KG) * CG;
      for (std::size_t oh = 0; oh < OH; ++oh) {
        for (std::size_t ow = 0; ow < OW; ++ow) {
          float acc = data.bias[k];
          for (std::size_t ci = 0; ci < CG; ++ci) {
            for (std::size_t i = 0; i < d.kernel; ++i) {
              const std::ptrdiff_t ih = static_cast<std::ptrdiff_t>(oh * d.stride + i) -
                                        static_cast<std::ptrdiff_t>(d.pad);
              if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(d.height)) continue;
              for (std::size_t j = 0; j < d.kernel; ++j) {
                const std::ptrdiff_t iw = static_cast<std::ptrdiff_t>(ow * d.stride + j) -
                                          static_cast<std::ptrdiff_t>(d.width_pad());
                if (iw < 0 || iw >= static_cast<std::ptrdiff_t>(d.width)) continue;
                acc += data.input[((b * d.in_channels + c0 + ci) * d.height +
                                   static_cast<std::size_t>(ih)) *
                                      d.width +
                                  static_cast<std::size_t>(iw)] *
                       data.weights[((k * CG + ci) * d.kernel + i) * d.kernel + j];
              }
            }
          }
          out[((b * d.out_channels + k) * OH + oh) * OW + ow] = acc;
        }
      }
    }
  }
}

}  // namespace

int bench_main() {
  ThreadPool& pool = ThreadPool::global();
  const std::size_t batch = bench::batch_override();
  std::printf("Dedicated INT8 engines vs generic paths (threads=%zu, batch=%zu)\n\n",
              pool.num_threads(), batch);

  struct Shape {
    const char* name;
    ConvDesc desc;
  };

  // --- zoo layers: the same engine with the pool and with pool = nullptr ---
  enum class Zoo { kFp32, kInt8_1x1, kInt8Direct };
  struct ZooShape {
    Shape shape;
    Zoo engine;
  };
  const ZooShape zoo[] = {
      {{"fp32 stem 1->64 /32", make_desc(1, 64, 32, 3, 1, 1, batch)}, Zoo::kFp32},
      {{"int8_1x1 32->64 /32", make_desc(32, 64, 32, 1, 1, 1, batch)}, Zoo::kInt8_1x1},
      {{"int8_direct 64->64 /32", make_desc(64, 64, 32, 3, 1, 1, batch)}, Zoo::kInt8Direct},
  };
  std::printf("%-24s %12s %12s %10s | %10s\n", "zoo layer", "serial ms", "pool ms",
              "pool gain", "pool GOPS");
  bench::print_rule(76);
  for (const ZooShape& z : zoo) {
    const ConvDesc& d = z.shape.desc;
    const bench::LayerData data = bench::make_layer_data(d, 17);
    std::vector<float> out(d.batch * d.out_channels * d.out_height() * d.out_width());
    const auto time_both = [&](auto& conv) {
      const double serial = bench::measure([&] { conv.execute_nchw(data.input, out, nullptr); });
      const double pooled = bench::measure([&] { conv.execute_nchw(data.input, out, &pool); });
      return std::make_pair(serial, pooled);
    };
    std::pair<double, double> t;
    if (z.engine == Zoo::kFp32) {
      Im2colConvF32 conv(d);
      conv.set_filters(data.weights, data.bias);
      t = time_both(conv);
    } else if (z.engine == Zoo::kInt8_1x1) {
      Int8Conv1x1Conv conv(d);
      conv.set_input_threshold(abs_max(data.input));
      conv.set_filters(data.weights, data.bias);
      t = time_both(conv);
    } else {
      Int8DirectConv conv(d);
      conv.set_input_threshold(abs_max(data.input));
      conv.set_filters(data.weights, data.bias);
      t = time_both(conv);
    }
    std::printf("%-24s %12.3f %12.3f %9.2fx | %10.1f\n", z.shape.name, 1e3 * t.first,
                1e3 * t.second, t.first / t.second, bench::direct_gflops(d, t.second));
    std::fflush(stdout);
  }
  std::printf("\n");

  // --- 1x1 pointwise: int8_1x1 vs the generic im2col INT8 direct ----------
  const Shape pw[] = {
      {"pw 64->128 /28", make_desc(64, 128, 28, 1, 1, 1, batch)},
      {"pw 128->128 /28", make_desc(128, 128, 28, 1, 1, 1, batch)},
      {"pw 256->256 /14", make_desc(256, 256, 14, 1, 1, 1, batch)},
      {"pw 256->512 /14 s2", make_desc(256, 512, 14, 1, 2, 1, batch)},
      {"pw 512->512 /7", make_desc(512, 512, 7, 1, 1, 1, batch)},
  };
  std::printf("%-20s %12s %12s %9s | %10s\n", "pointwise layer", "direct ms", "1x1 ms",
              "speedup", "1x1 GOPS");
  bench::print_rule(72);
  double pw_geomean = 0.0;
  for (const Shape& s : pw) {
    const ConvDesc& d = s.desc;
    const bench::LayerData data = bench::make_layer_data(d, 11);
    std::vector<float> out(d.batch * d.out_channels * d.out_height() * d.out_width());
    double t_direct, t_1x1;
    {
      Int8DirectConv conv(d);
      conv.set_input_threshold(abs_max(data.input));
      conv.set_filters(data.weights, data.bias);
      t_direct = bench::measure([&] { conv.execute_nchw(data.input, out, &pool); });
    }
    {
      Int8Conv1x1Conv conv(d);
      conv.set_input_threshold(abs_max(data.input));
      conv.set_filters(data.weights, data.bias);
      t_1x1 = bench::measure([&] { conv.execute_nchw(data.input, out, &pool); });
    }
    pw_geomean += std::log(t_direct / t_1x1);
    std::printf("%-20s %12.3f %12.3f %8.2fx | %10.1f\n", s.name, 1e3 * t_direct,
                1e3 * t_1x1, t_direct / t_1x1, bench::direct_gflops(d, t_1x1));
    std::fflush(stdout);
  }
  pw_geomean = std::exp(pw_geomean / (sizeof(pw) / sizeof(pw[0])));
  std::printf("int8_1x1 vs int8-direct geomean speedup: %.2fx\n\n", pw_geomean);

  // --- depthwise: int8_dw vs the FP32 scalar grouped fallback -------------
  const Shape dw[] = {
      {"dw3x3 g=64 /56", make_desc(64, 64, 56, 3, 1, 64, batch)},
      {"dw3x3 g=128 /28", make_desc(128, 128, 28, 3, 1, 128, batch)},
      {"dw3x3 g=256 /14 s2", make_desc(256, 256, 14, 3, 2, 256, batch)},
      {"dw3x3 g=512 /7", make_desc(512, 512, 7, 3, 1, 512, batch)},
  };
  std::printf("%-20s %12s %12s %9s | %10s\n", "depthwise layer", "fp32 ms", "int8_dw ms",
              "speedup", "dw GOPS");
  bench::print_rule(72);
  for (const Shape& s : dw) {
    const ConvDesc& d = s.desc;
    const bench::LayerData data = bench::make_layer_data(d, 13);
    std::vector<float> out(d.batch * d.out_channels * d.out_height() * d.out_width());
    const double t_fp32 = bench::measure([&] { fp32_grouped_direct(d, data, out); });
    double t_dw;
    {
      Int8DepthwiseConv conv(d);
      conv.set_input_threshold(abs_max(data.input));
      conv.set_filters(data.weights, data.bias);
      t_dw = bench::measure([&] { conv.execute_nchw(data.input, out, &pool); });
    }
    std::printf("%-20s %12.3f %12.3f %8.2fx | %10.1f\n", s.name, 1e3 * t_fp32, 1e3 * t_dw,
                t_fp32 / t_dw, bench::direct_gflops(d, t_dw));
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace lowino

int main() { return lowino::bench_main(); }
