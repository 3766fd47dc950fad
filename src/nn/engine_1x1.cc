// Int8Conv1x1Engine: the ConvEngine wrapper + registry record for the
// dedicated INT8 1x1 path (direct/direct_1x1.h). Lives in its own translation
// unit per the registry contract — adding the engine touched no engines.cc
// fan-out point, only the builtin list in engine_registry.cc.
#include "direct/direct_1x1.h"
#include "nn/engine_registry.h"

namespace lowino {
namespace {

class Int8Conv1x1Engine final : public ConvEngine {
 public:
  explicit Int8Conv1x1Engine(const ConvDesc& desc) : conv_(desc) {}
  EngineKind kind() const override { return EngineKind::kInt8Conv1x1; }

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
  Int8Conv1x1Conv conv_;
};

bool supports_1x1(const ConvDesc& desc) {
  // Any stride (the gather is just strided); pad = 0 follows from
  // is_valid()'s pad < kernel.
  return desc.kernel == 1 && desc.groups == 1;
}

}  // namespace

void register_int8_conv1x1_engine(EngineRegistrations& regs) {
  regs.push_back({EngineKind::kInt8Conv1x1, "INT8 direct 1x1", "int8_1x1",
                  /*quantized=*/true, /*post_ops=*/true, /*u8_handoff=*/true,
                  supports_1x1, [](const ConvDesc& d) {
                    return std::unique_ptr<ConvEngine>(new Int8Conv1x1Engine(d));
                  }});
}

}  // namespace lowino
