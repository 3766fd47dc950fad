// Int8DepthwiseEngine: the ConvEngine wrapper + registry record for the
// INT8 depthwise path (direct/direct_depthwise.h). Lives in its own
// translation unit per the registry contract.
#include "direct/direct_depthwise.h"
#include "nn/engine_registry.h"

namespace lowino {
namespace {

class Int8DepthwiseEngine final : public ConvEngine {
 public:
  explicit Int8DepthwiseEngine(const ConvDesc& desc) : conv_(desc) {}
  EngineKind kind() const override { return EngineKind::kInt8Depthwise; }

 protected:
  void do_calibrate(std::span<const float> in) override { conv_.calibrate(in); }
  void do_finalize_calibration() override { conv_.finalize_calibration(); }
  void do_set_filters(std::span<const float> w, std::span<const float> b) override {
    conv_.set_filters(w, b);
  }
  void do_run(std::span<const float> in, std::span<float> out, ThreadPool* pool,
              const PostOps& post) override {
    conv_.execute_nchw(in, out, pool, post);
  }
  void do_set_input_u8(const QuantParams& qp) override { conv_.set_input_u8(qp); }
  void do_set_output_u8(const QuantParams& qp) override { conv_.set_output_u8(qp); }
  void do_run_typed(const void* in, void* out, ThreadPool* pool,
                    const PostOps& post) override {
    conv_.execute_typed(in, out, pool, post);
  }

 private:
  Int8DepthwiseConv conv_;
};

bool supports_depthwise(const ConvDesc& desc) { return desc.is_depthwise(); }

}  // namespace

void register_int8_depthwise_engine(EngineRegistrations& regs) {
  regs.push_back({EngineKind::kInt8Depthwise, "INT8 depthwise direct", "int8_dw",
                  /*quantized=*/true, /*post_ops=*/true, /*u8_handoff=*/true,
                  supports_depthwise, [](const ConvDesc& d) {
                    return std::unique_ptr<ConvEngine>(new Int8DepthwiseEngine(d));
                  }});
}

}  // namespace lowino
