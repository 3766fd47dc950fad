// Tests for the serving layer (src/serve): the liveness-based arena planner
// (fuzzed), SessionPlan text round-trip, and InferenceSession — differential
// bit-identity against SequentialModel::forward_engine, plan replay,
// wisdom-backed selection, and the zero-allocation steady-state contract
// (global operator new counting + the AlignedBuffer allocation counter).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <random>
#include <span>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/env.h"
#include "common/rng.h"
#include "nn/model_zoo.h"
#include "parallel/thread_pool.h"
#include "profile/profiler.h"
#include "quant/quantize.h"
#include "serve/arena.h"
#include "serve/session.h"
#include "tuning/wisdom.h"

// ---------------------------------------------------------------------------
// Malloc-counting harness: replace the global allocation functions so the
// steady-state test can assert InferenceSession::run touches the heap zero
// times. Replacement is binary-wide; counting is a single relaxed atomic, so
// the other tests are unaffected beyond a negligible constant cost.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// The nothrow variants must be replaced too: libstdc++'s temporary-buffer
// machinery (std::stable_sort) allocates with nothrow new but frees through
// plain operator delete — leaving nothrow new to the runtime while replacing
// delete is an alloc/dealloc mismatch under AddressSanitizer.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace lowino {
namespace {

std::uint64_t heap_alloc_count() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

// --- Arena planner ----------------------------------------------------------

bool time_overlap(const ArenaRequest& a, const ArenaRequest& b) {
  return a.def_step <= b.last_use_step && b.def_step <= a.last_use_step;
}

TEST(ArenaPlanner, FuzzNoAliasedOverlapAndPeakBound) {
  std::mt19937 rng(20260806);
  for (int iter = 0; iter < 300; ++iter) {
    const std::size_t n = 1 + rng() % 40;
    std::vector<ArenaRequest> reqs(n);
    for (ArenaRequest& r : reqs) {
      r.bytes = rng() % 20000;  // zero-byte requests included on purpose
      const std::size_t a = rng() % 64, b = rng() % 64;
      r.def_step = std::min(a, b);
      r.last_use_step = std::max(a, b);
    }
    const ArenaPlan plan = plan_arena(reqs);
    ASSERT_EQ(plan.offsets.size(), n);

    std::size_t naive = 0;
    for (const ArenaRequest& r : reqs) naive += round_up(r.bytes, kArenaAlignment);
    EXPECT_EQ(plan.naive_bytes, naive);
    EXPECT_LE(plan.peak_bytes, naive);

    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t sz_i = round_up(reqs[i].bytes, kArenaAlignment);
      if (sz_i == 0) continue;
      EXPECT_EQ(plan.offsets[i] % kArenaAlignment, 0u);
      EXPECT_LE(plan.offsets[i] + sz_i, plan.peak_bytes);
      for (std::size_t j = i + 1; j < n; ++j) {
        const std::size_t sz_j = round_up(reqs[j].bytes, kArenaAlignment);
        if (sz_j == 0 || !time_overlap(reqs[i], reqs[j])) continue;
        const bool disjoint = plan.offsets[i] + sz_i <= plan.offsets[j] ||
                              plan.offsets[j] + sz_j <= plan.offsets[i];
        ASSERT_TRUE(disjoint) << "iter " << iter << ": live requests " << i << " and " << j
                              << " alias";
      }
    }
  }
}

TEST(ArenaPlanner, DisjointLifetimesShareBytes) {
  const ArenaRequest reqs[] = {{1000, 0, 1}, {1000, 2, 3}, {1000, 4, 5}};
  const ArenaPlan plan = plan_arena(reqs);
  EXPECT_EQ(plan.peak_bytes, round_up(1000, kArenaAlignment));
  EXPECT_EQ(plan.naive_bytes, 3 * round_up(1000, kArenaAlignment));
}

TEST(ArenaPlanner, OverlappingLifetimesStack) {
  const ArenaRequest reqs[] = {{64, 0, 2}, {64, 1, 3}, {64, 2, 4}};
  const ArenaPlan plan = plan_arena(reqs);
  // 0/1 and 1/2 overlap; 0 and 2 only touch at step 2 (inclusive) — all three
  // are simultaneously live at step 2, so the peak is the full stack.
  EXPECT_EQ(plan.peak_bytes, 3u * 64u);
}

// --- SessionPlan text format ------------------------------------------------

SessionPlan sample_plan() {
  SessionPlan p;
  p.batch = 4;
  p.arena_bytes = 65536;
  p.naive_bytes = 131072;
  SessionPlan::ConvChoice a;
  a.op_index = 2;
  a.layer = "conv3x3(64->64)";
  a.desc = "B4 C64 K64 H16 W16 r3";
  a.engine = EngineKind::kLoWinoF4;
  a.snr_db = 41.5;
  a.seconds = 1.25e-4;
  a.met_envelope = true;
  SessionPlan::ConvChoice b;
  b.op_index = 5;
  b.layer = "conv3x3(64->128)";
  b.desc = "B4 C64 K128 H8 W8 r3";
  b.engine = EngineKind::kInt8Direct;
  b.snr_db = 17.0;
  b.seconds = 9.5e-5;
  b.met_envelope = false;
  p.convs = {a, b};
  return p;
}

TEST(SessionPlanFormat, SerializeDeserializeRoundTrip) {
  const SessionPlan p = sample_plan();
  const auto q = SessionPlan::deserialize(p.serialize());
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->batch, p.batch);
  EXPECT_EQ(q->arena_bytes, p.arena_bytes);
  EXPECT_EQ(q->naive_bytes, p.naive_bytes);
  ASSERT_EQ(q->convs.size(), p.convs.size());
  for (std::size_t i = 0; i < p.convs.size(); ++i) {
    EXPECT_EQ(q->convs[i].op_index, p.convs[i].op_index);
    EXPECT_EQ(q->convs[i].layer, p.convs[i].layer);
    EXPECT_EQ(q->convs[i].desc, p.convs[i].desc);
    EXPECT_EQ(q->convs[i].engine, p.convs[i].engine);
    EXPECT_NEAR(q->convs[i].snr_db, p.convs[i].snr_db, 1e-12);
    EXPECT_NEAR(q->convs[i].seconds, p.convs[i].seconds, 1e-12);
    EXPECT_EQ(q->convs[i].met_envelope, p.convs[i].met_envelope);
  }
}

TEST(SessionPlanFormat, StrictParserRejectsCorruptText) {
  const std::string good = sample_plan().serialize();
  EXPECT_TRUE(SessionPlan::deserialize(good).has_value());
  // Whole-plan rejection on any malformed line.
  EXPECT_FALSE(SessionPlan::deserialize("").has_value());
  EXPECT_FALSE(SessionPlan::deserialize("batch = 0\narena = 1\nnaive = 1\n").has_value());
  EXPECT_FALSE(SessionPlan::deserialize(good + "garbage line\n").has_value());
  EXPECT_FALSE(
      SessionPlan::deserialize(good + "conv = 1 not_an_engine 1 1 1 | l | d\n").has_value());
  EXPECT_FALSE(SessionPlan::deserialize(good + "conv = 1 lowino_f4 1 1 7 | l | d\n")
                   .has_value());  // met flag must be 0/1
  EXPECT_FALSE(SessionPlan::deserialize(good + "conv = 1 lowino_f4 1 1 1 | only-one-bar\n")
                   .has_value());
  std::string no_batch = good;
  no_batch.erase(no_batch.find("batch = 4"), 10);
  EXPECT_FALSE(SessionPlan::deserialize(no_batch).has_value());
}

TEST(SessionPlanFormat, FileRoundTrip) {
  const SessionPlan p = sample_plan();
  const std::string path = ::testing::TempDir() + "lowino_session_plan_test.txt";
  ASSERT_TRUE(p.save(path));
  const auto q = SessionPlan::load(path);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->serialize(), p.serialize());
  std::remove(path.c_str());
}

// --- InferenceSession -------------------------------------------------------

Tensor<float> random_input(std::size_t batch, std::size_t hw, std::uint64_t seed) {
  Tensor<float> t({batch, 1, hw, hw});
  Rng rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i) t.data()[i] = rng.uniform(-1.0f, 1.0f);
  return t;
}

/// Calibrates `model` for `kind` on `calib` and compiles a session from the
/// same calibration batch, so both paths share identical quantization scales.
InferenceSession forced_session(SequentialModel& model, const Tensor<float>& calib,
                                EngineKind kind, ThreadPool* pool) {
  PlanOptions options;
  options.forced_engine = kind;
  options.pool = pool;
  return InferenceSession::compile(model, calib, options);
}

/// The quantizable convolutions of `model` (a residual block holds two).
std::size_t quantizable_conv_count(SequentialModel& model) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    if (auto* conv = dynamic_cast<ConvLayer*>(&model.layer(i))) {
      n += conv->quantizable() ? 1 : 0;
    } else if (auto* res = dynamic_cast<ResidualBlock*>(&model.layer(i))) {
      n += (res->conv1().quantizable() ? 1 : 0) + (res->conv2().quantizable() ? 1 : 0);
    }
  }
  return n;
}

/// The plan has one line per quantizable conv; the FP32 stem (op 0) runs its
/// own engine outside it.
void expect_plan_lists_quantizable_convs(const InferenceSession& session,
                                         SequentialModel& model) {
  EXPECT_EQ(session.plan().convs.size(), quantizable_conv_count(model));
  for (const SessionPlan::ConvChoice& c : session.plan().convs) {
    EXPECT_NE(c.op_index, 0u) << "the FP32 stem is not a plan line";
  }
}

/// Serves a copy of `zoo`'s FP32 stem (layer 0), alone and with the ReLU the
/// zoo models fuse into it, and expects ConvLayer::forward's exact bits on
/// the calibration batch.
void expect_stem_serves_forward_bits(SequentialModel& zoo, const Tensor<float>& calib) {
  auto& stem = dynamic_cast<ConvLayer&>(zoo.layer(0));
  ASSERT_FALSE(stem.quantizable());
  Tensor<float> ref;
  stem.forward(calib, ref, /*train=*/false);
  for (const bool with_relu : {false, true}) {
    const ConvDesc d = stem.conv_desc(1);
    Rng rng(0);
    auto copy = std::make_unique<ConvLayer>(d.in_channels, d.out_channels, d.height,
                                            d.kernel, d.pad, rng, d.groups);
    std::copy(stem.weights().begin(), stem.weights().end(), copy->mutable_weights().begin());
    ASSERT_TRUE(std::equal(stem.bias().begin(), stem.bias().end(), copy->bias().begin()));
    copy->set_quantizable(false);
    SequentialModel model;
    model.add(std::move(copy));
    if (with_relu) model.add(std::make_unique<ReluLayer>());
    PlanOptions options;
    options.pool = &ThreadPool::global();
    InferenceSession session = InferenceSession::compile(model, calib, options);
    EXPECT_TRUE(session.plan().convs.empty()) << "an FP32 conv is never a plan line";
    Tensor<float> out;
    session.run(calib, out);
    Tensor<float> expect = ref;
    if (with_relu) {
      for (float& v : expect.span()) v = std::max(0.0f, v);
    }
    ASSERT_EQ(out.shape(), expect.shape());
    EXPECT_EQ(0, std::memcmp(out.data(), expect.data(), out.size() * sizeof(float)))
        << (with_relu ? "stem+relu (fused epilogue)" : "stem");
  }
}

TEST(InferenceSession, BitIdenticalToForwardEngineMiniVgg) {
  // forward_engine hands FP32 between layers; the u8 hand-off deliberately
  // changes that, so the bit-identity contract is pinned to hand-off-off.
  ScopedRuntimeOverride u8_off("LOWINO_U8_HANDOFF", "0");
  ThreadPool& pool = ThreadPool::global();
  const Tensor<float> calib = random_input(4, 16, 101);
  const Tensor<float> input = random_input(4, 16, 202);
  for (const EngineKind kind :
       {EngineKind::kInt8Direct, EngineKind::kLoWinoF2, EngineKind::kLoWinoF4}) {
    SequentialModel model = make_minivgg();
    model.calibrate(calib, kind);
    model.finalize_calibration(kind);
    InferenceSession session = forced_session(model, calib, kind, &pool);
    expect_plan_lists_quantizable_convs(session, model);
    const Tensor<float>& ref = model.forward_engine(input, kind, &pool);
    Tensor<float> out;
    session.run(input, out);
    ASSERT_EQ(out.shape(), ref.shape());
    EXPECT_EQ(0, std::memcmp(out.data(), ref.data(), out.size() * sizeof(float)))
        << "engine " << engine_token(kind);
  }
  SequentialModel zoo = make_minivgg();
  expect_stem_serves_forward_bits(zoo, calib);
}

TEST(InferenceSession, BitIdenticalToForwardEngineMiniResNet) {
  ScopedRuntimeOverride u8_off("LOWINO_U8_HANDOFF", "0");
  ThreadPool& pool = ThreadPool::global();
  const Tensor<float> calib = random_input(2, 16, 303);
  const Tensor<float> input = random_input(2, 16, 404);
  for (const EngineKind kind : {EngineKind::kInt8Direct, EngineKind::kLoWinoF4}) {
    SequentialModel model = make_miniresnet();
    model.calibrate(calib, kind);
    model.finalize_calibration(kind);
    InferenceSession session = forced_session(model, calib, kind, &pool);
    expect_plan_lists_quantizable_convs(session, model);
    const Tensor<float>& ref = model.forward_engine(input, kind, &pool);
    Tensor<float> out;
    session.run(input, out);
    ASSERT_EQ(out.shape(), ref.shape());
    EXPECT_EQ(0, std::memcmp(out.data(), ref.data(), out.size() * sizeof(float)))
        << "engine " << engine_token(kind);
  }
  SequentialModel zoo = make_miniresnet();
  expect_stem_serves_forward_bits(zoo, calib);
}

TEST(InferenceSession, SteadyStateRunIsAllocationFree) {
  SequentialModel model = make_miniresnet();
  const Tensor<float> calib = random_input(2, 16, 505);
  const Tensor<float> input = random_input(2, 16, 606);
  ThreadPool& pool = ThreadPool::global();
  InferenceSession session = forced_session(model, calib, EngineKind::kLoWinoF4, &pool);

  Tensor<float> out;
  session.run(input, out);  // warm the caller-owned output tensor
  const std::uint64_t heap_before = heap_alloc_count();
  const std::uint64_t aligned_before = aligned_buffer_alloc_count();
  for (int i = 0; i < 5; ++i) session.run(input, out);
  EXPECT_EQ(heap_alloc_count(), heap_before) << "operator new called on the serve path";
  EXPECT_EQ(aligned_buffer_alloc_count(), aligned_before)
      << "AlignedBuffer (re)allocated on the serve path";
}

TEST(InferenceSession, ArenaPeakAtMostNaiveOnZooModels) {
  ThreadPool& pool = ThreadPool::global();
  {
    SequentialModel vgg = make_minivgg();
    const Tensor<float> calib = random_input(2, 16, 707);
    InferenceSession s = forced_session(vgg, calib, EngineKind::kLoWinoF2, &pool);
    EXPECT_LE(s.plan().arena_bytes, s.plan().naive_bytes);
    // A chain network reuses ping-pong slots: the arena must beat one-buffer-
    // per-activation by a strict margin.
    EXPECT_LT(s.plan().arena_bytes, s.plan().naive_bytes);
  }
  {
    SequentialModel resnet = make_miniresnet();
    const Tensor<float> calib = random_input(2, 16, 808);
    InferenceSession s = forced_session(resnet, calib, EngineKind::kLoWinoF2, &pool);
    EXPECT_LT(s.plan().arena_bytes, s.plan().naive_bytes);
  }
}

TEST(InferenceSession, AutoSelectionMeetsEnvelopeAndRecordsPlan) {
  SequentialModel model = make_minivgg();
  const Tensor<float> calib = random_input(2, 16, 909);
  PlanOptions options;
  options.pool = &ThreadPool::global();
  options.seconds_per_candidate = 0.005;
  InferenceSession session = InferenceSession::compile(model, calib, options);
  ASSERT_FALSE(session.plan().convs.empty());
  for (const SessionPlan::ConvChoice& c : session.plan().convs) {
    EXPECT_FALSE(c.layer.empty());
    EXPECT_FALSE(c.desc.empty());
    EXPECT_GT(c.seconds, 0.0);  // shoot-out actually measured
  }
  const Tensor<float> input = random_input(2, 16, 1010);
  Tensor<float> out;
  session.run(input, out);
  ASSERT_EQ(out.rank(), 2u);
  EXPECT_EQ(out.dim(0), 2u);
}

TEST(InferenceSession, PlanReplayServesIdentically) {
  const Tensor<float> calib = random_input(2, 16, 111);
  const Tensor<float> input = random_input(2, 16, 222);
  PlanOptions options;
  options.pool = &ThreadPool::global();
  options.seconds_per_candidate = 0.005;

  SequentialModel model_a = make_minivgg();
  InferenceSession first = InferenceSession::compile(model_a, calib, options);

  const std::string path = ::testing::TempDir() + "lowino_plan_replay_test.txt";
  ASSERT_TRUE(first.plan().save(path));
  const auto loaded = SessionPlan::load(path);
  ASSERT_TRUE(loaded.has_value());
  std::remove(path.c_str());

  // Fresh model with the same seed => same weights; the replayed session
  // must pick the same engines without measuring, and serve bit-identically.
  SequentialModel model_b = make_minivgg();
  PlanOptions replay;
  replay.pool = options.pool;
  replay.reuse = &*loaded;
  InferenceSession second = InferenceSession::compile(model_b, calib, replay);
  ASSERT_EQ(second.plan().convs.size(), first.plan().convs.size());
  for (std::size_t i = 0; i < first.plan().convs.size(); ++i) {
    EXPECT_EQ(second.plan().convs[i].engine, first.plan().convs[i].engine);
  }

  Tensor<float> out_a, out_b;
  first.run(input, out_a);
  second.run(input, out_b);
  ASSERT_EQ(out_a.shape(), out_b.shape());
  EXPECT_EQ(0, std::memcmp(out_a.data(), out_b.data(), out_a.size() * sizeof(float)));
}

TEST(InferenceSession, MiniMobileNetPlanRoundTripsDepthwiseLines) {
  const Tensor<float> calib = random_input(2, 16, 444);
  const Tensor<float> input = random_input(2, 16, 555);
  PlanOptions options;
  options.pool = &ThreadPool::global();
  options.seconds_per_candidate = 0.005;

  SequentialModel model_a = make_minimobilenet();
  InferenceSession first = InferenceSession::compile(model_a, calib, options);

  // The depthwise layers admit exactly one quantized candidate — the
  // dedicated int8_dw engine — and their plan lines must carry the grouped
  // descriptor token. The pointwise layers must land on a 1x1-capable direct
  // engine (the Winograd kinds all reject r = 1).
  std::size_t depthwise = 0, pointwise = 0;
  for (const SessionPlan::ConvChoice& c : first.plan().convs) {
    if (c.desc.find(" g") != std::string::npos) {
      ++depthwise;
      EXPECT_EQ(c.engine, EngineKind::kInt8Depthwise) << c.layer << " " << c.desc;
    } else if (c.desc.find(" r1") != std::string::npos) {
      ++pointwise;
      EXPECT_TRUE(c.engine == EngineKind::kInt8Conv1x1 ||
                  c.engine == EngineKind::kInt8Direct)
          << c.layer << " chose " << engine_token(c.engine);
    }
  }
  EXPECT_EQ(depthwise, 2u);
  EXPECT_EQ(pointwise, 2u);

  // Text round-trip: the serialized plan (with its " g#" descriptor tokens
  // and int8_dw engine tokens) must reload verbatim and replay bit-identical
  // on a fresh same-seed model.
  const std::string path = ::testing::TempDir() + "lowino_mobilenet_plan_test.txt";
  ASSERT_TRUE(first.plan().save(path));
  const auto loaded = SessionPlan::load(path);
  ASSERT_TRUE(loaded.has_value());
  std::remove(path.c_str());
  EXPECT_EQ(loaded->serialize(), first.plan().serialize());

  SequentialModel model_b = make_minimobilenet();
  PlanOptions replay;
  replay.pool = options.pool;
  replay.reuse = &*loaded;
  InferenceSession second = InferenceSession::compile(model_b, calib, replay);
  ASSERT_EQ(second.plan().convs.size(), first.plan().convs.size());
  for (std::size_t i = 0; i < first.plan().convs.size(); ++i) {
    EXPECT_EQ(second.plan().convs[i].engine, first.plan().convs[i].engine);
  }
  Tensor<float> out_a, out_b;
  first.run(input, out_a);
  second.run(input, out_b);
  ASSERT_EQ(out_a.shape(), out_b.shape());
  EXPECT_EQ(0, std::memcmp(out_a.data(), out_b.data(), out_a.size() * sizeof(float)));
}

TEST(InferenceSession, PlanReplayRejectsMismatchedModel) {
  const Tensor<float> calib = random_input(2, 16, 333);
  SequentialModel vgg = make_minivgg();
  PlanOptions options;
  options.pool = &ThreadPool::global();
  options.forced_engine = EngineKind::kLoWinoF2;
  InferenceSession session = InferenceSession::compile(vgg, calib, options);

  SessionPlan plan = session.plan();
  SequentialModel resnet = make_miniresnet();
  PlanOptions replay;
  replay.pool = options.pool;
  replay.reuse = &plan;
  EXPECT_THROW(InferenceSession::compile(resnet, calib, replay), std::invalid_argument);

  SessionPlan wrong_batch = plan;
  wrong_batch.batch = 8;
  replay.reuse = &wrong_batch;
  EXPECT_THROW(InferenceSession::compile(vgg, calib, replay), std::invalid_argument);
}

TEST(InferenceSession, WisdomRecordsAndReplaysPerLayerChoices) {
  const Tensor<float> calib = random_input(2, 16, 444);
  WisdomStore wisdom;
  PlanOptions options;
  options.pool = &ThreadPool::global();
  options.seconds_per_candidate = 0.005;
  options.wisdom = &wisdom;

  SequentialModel model_a = make_minivgg();
  InferenceSession first = InferenceSession::compile(model_a, calib, options);
  EXPECT_EQ(wisdom.string_size(), first.plan().convs.size());

  // The recorded entries survive the wisdom text format.
  const WisdomStore reloaded = WisdomStore::deserialize(wisdom.serialize());
  EXPECT_EQ(reloaded.string_size(), wisdom.string_size());

  // A second compile consults wisdom: same engines, no shoot-out timing.
  SequentialModel model_b = make_minivgg();
  WisdomStore reloaded_mutable = reloaded;
  PlanOptions consult = options;
  consult.wisdom = &reloaded_mutable;
  InferenceSession second = InferenceSession::compile(model_b, calib, consult);
  ASSERT_EQ(second.plan().convs.size(), first.plan().convs.size());
  for (std::size_t i = 0; i < first.plan().convs.size(); ++i) {
    EXPECT_EQ(second.plan().convs[i].engine, first.plan().convs[i].engine);
    EXPECT_EQ(second.plan().convs[i].seconds, 0.0);  // replayed, not measured
  }
}

TEST(InferenceSession, RejectsWrongInputShapeAndBadModels) {
  SequentialModel model = make_minivgg();
  const Tensor<float> calib = random_input(2, 16, 555);
  InferenceSession session =
      forced_session(model, calib, EngineKind::kInt8Direct, &ThreadPool::global());
  const Tensor<float> wrong = random_input(4, 16, 556);
  Tensor<float> out;
  EXPECT_THROW(session.run(wrong, out), std::invalid_argument);

  SequentialModel empty;
  EXPECT_THROW(InferenceSession::compile(empty, calib, {}), std::invalid_argument);
  Tensor<float> rank2({2, 16});
  EXPECT_THROW(InferenceSession::compile(model, rank2, {}), std::invalid_argument);
}

TEST(InferenceSession, RejectsGroupedFp32Conv) {
  // Non-quantizable convs run on kFp32Direct, which takes ungrouped shapes
  // only: a grouped FP32 conv must fail compile, naming the layer, instead of
  // reading its K x (C/g) x r x r weights as K x C x r x r.
  const Tensor<float> calib = random_input(2, 8, 557);
  for (const std::size_t groups : {std::size_t{2}, std::size_t{4}}) {  // grouped, depthwise
    Rng rng(31);
    SequentialModel model;
    auto stem = std::make_unique<ConvLayer>(1, 4, 8, 3, 1, rng);
    stem->set_quantizable(false);
    model.add(std::move(stem));
    auto grouped = std::make_unique<ConvLayer>(4, 4, 8, 3, 1, rng, groups);
    grouped->set_quantizable(false);
    const std::string name = grouped->name();
    model.add(std::move(grouped));
    try {
      InferenceSession::compile(model, calib, {});
      ADD_FAILURE() << "compile accepted non-quantizable " << name;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
    }
  }
}

// --- Per-layer selection on a single conv -----------------------------------

/// A model holding one quantizable 3x3 conv (pad 1, no epilogue to fuse) and
/// a random batch for it; `conv` points into `model`.
struct SingleConv {
  SequentialModel model;
  ConvLayer* conv = nullptr;
  Tensor<float> input;
};

SingleConv single_conv(std::size_t c, std::size_t k, std::size_t hw, std::uint64_t seed) {
  SingleConv s;
  Rng rng(seed);
  auto conv = std::make_unique<ConvLayer>(c, k, hw, 3, 1, rng);
  s.conv = conv.get();
  s.model.add(std::move(conv));
  s.input = Tensor<float>({1, c, hw, hw});
  for (std::size_t i = 0; i < s.input.size(); ++i) {
    s.input.data()[i] = rng.uniform(-1.0f, 1.0f);
  }
  return s;
}

double served_snr_db(SingleConv& s, InferenceSession& session) {
  Tensor<float> ref, out;
  s.conv->forward(s.input, ref, /*train=*/false);
  session.run(s.input, out);
  EXPECT_EQ(out.shape(), ref.shape());
  if (out.shape() != ref.shape()) return -1e300;
  return quantization_error(ref.span(), out.span()).signal_to_noise_db;
}

class ForcedEngineSession : public ::testing::TestWithParam<EngineKind> {};

TEST_P(ForcedEngineSession, SingleConvStaysAccurateWithoutShootOut) {
  const EngineKind kind = GetParam();
  SingleConv s = single_conv(64, 128, 12, 4);
  PlanOptions options;
  options.pool = &ThreadPool::global();
  options.forced_engine = kind;
  InferenceSession session = InferenceSession::compile(s.model, s.input, options);
  ASSERT_EQ(session.plan().convs.size(), 1u);
  const SessionPlan::ConvChoice& c = session.plan().convs[0];
  EXPECT_EQ(c.engine, kind);
  EXPECT_EQ(c.seconds, 0.0);  // forced, not measured
  EXPECT_GT(c.snr_db, 14.0);  // the one accuracy measurement is still recorded
  EXPECT_GT(served_snr_db(s, session), 14.0) << engine_token(kind);
}

INSTANTIATE_TEST_SUITE_P(Engines, ForcedEngineSession,
                         ::testing::Values(EngineKind::kInt8Direct, EngineKind::kLoWinoF2,
                                           EngineKind::kLoWinoF4),
                         [](const ::testing::TestParamInfo<EngineKind>& info) {
                           return std::string(engine_token(info.param));
                         });

TEST(InferenceSession, ShootOutOnSingleConvServesWithinEnvelope) {
  SingleConv s = single_conv(64, 64, 14, 1);
  PlanOptions options;
  options.pool = &ThreadPool::global();
  options.seconds_per_candidate = 0.01;
  InferenceSession session = InferenceSession::compile(s.model, s.input, options);
  ASSERT_EQ(session.plan().convs.size(), 1u);
  const SessionPlan::ConvChoice& c = session.plan().convs[0];
  EXPECT_GT(c.seconds, 0.0);  // the shoot-out measured its pick
  EXPECT_TRUE(engine_caps(c.engine, s.conv->conv_desc(1)).quantized);
  EXPECT_TRUE(c.met_envelope) << engine_token(c.engine) << " at " << c.snr_db << " dB";
  EXPECT_GE(served_snr_db(s, session), options.min_snr_db) << engine_token(c.engine);
}

TEST(InferenceSession, SelectedEngineStaysFixedAcrossRuns) {
  // Selection happens once, at compile: serving other batches in between
  // changes neither the plan nor the bits served for a repeated batch.
  SingleConv s = single_conv(64, 64, 10, 2);
  PlanOptions options;
  options.pool = &ThreadPool::global();
  options.seconds_per_candidate = 0.005;
  InferenceSession session = InferenceSession::compile(s.model, s.input, options);
  const std::string plan_text = session.plan().serialize();

  Tensor<float> first, other, again;
  session.run(s.input, first);
  const Tensor<float> different = single_conv(64, 64, 10, 3).input;
  session.run(different, other);
  session.run(s.input, again);
  EXPECT_EQ(session.plan().serialize(), plan_text);
  ASSERT_EQ(again.shape(), first.shape());
  EXPECT_EQ(0, std::memcmp(again.data(), first.data(), first.size() * sizeof(float)));
}

TEST(InferenceSession, PlanEngineWisdomKeyCarriesDescriptorAndSteersSelection) {
  SingleConv s = single_conv(64, 64, 8, 5);
  WisdomStore wisdom;
  PlanOptions options;
  options.pool = &ThreadPool::global();
  options.seconds_per_candidate = 0.005;
  options.wisdom = &wisdom;
  InferenceSession measured = InferenceSession::compile(s.model, s.input, options);
  ASSERT_EQ(measured.plan().convs.size(), 1u);
  const SessionPlan::ConvChoice& c = measured.plan().convs[0];
  // Unfused convs are keyed "plan-engine <desc>", valued with the engine token.
  EXPECT_EQ(c.desc, s.conv->conv_desc(1).to_string());
  ASSERT_EQ(wisdom.string_size(), 1u);
  EXPECT_EQ(wisdom.get_string("plan-engine " + c.desc), std::string(engine_token(c.engine)));

  // A hand-written entry under the same key picks the engine without a
  // shoot-out, whatever the measurement would have chosen.
  for (const EngineKind kind : {EngineKind::kInt8Direct, EngineKind::kLoWinoF2}) {
    WisdomStore hinted;
    ASSERT_TRUE(hinted.put_string("plan-engine " + c.desc, engine_token(kind)));
    PlanOptions consult = options;
    consult.wisdom = &hinted;
    InferenceSession session = InferenceSession::compile(s.model, s.input, consult);
    ASSERT_EQ(session.plan().convs.size(), 1u);
    EXPECT_EQ(session.plan().convs[0].engine, kind);
    EXPECT_EQ(session.plan().convs[0].seconds, 0.0);
    EXPECT_GT(served_snr_db(s, session), 14.0) << engine_token(kind);
  }
}

// --- Post-op fusion ---------------------------------------------------------

TEST(SessionPlanFormat, PostOpsTokenRoundTrip) {
  SessionPlan p = sample_plan();
  p.convs[0].fuse_relu = true;
  p.convs[1].fuse_relu = true;
  p.convs[1].fuse_sum = true;
  const std::string text = p.serialize();
  EXPECT_NE(text.find(" post=relu |"), std::string::npos);
  EXPECT_NE(text.find(" post=sum+relu |"), std::string::npos);
  const auto q = SessionPlan::deserialize(text);
  ASSERT_TRUE(q.has_value());
  ASSERT_EQ(q->convs.size(), 2u);
  EXPECT_TRUE(q->convs[0].fuse_relu);
  EXPECT_FALSE(q->convs[0].fuse_sum);
  EXPECT_TRUE(q->convs[1].fuse_relu);
  EXPECT_TRUE(q->convs[1].fuse_sum);
  EXPECT_EQ(q->serialize(), text);
}

TEST(SessionPlanFormat, UnfusedLinesStayV1Compatible) {
  // No fused epilogue => no post token, so a v1-era conv line parses and
  // yields unfused choices (old plan files keep loading).
  const std::string text = sample_plan().serialize();
  // Only the format header mentions post=; no conv line carries a token.
  EXPECT_EQ(text.find("post=", text.find('\n')), std::string::npos);
  const std::string v1_line = "conv = 3 lowino_f2 25.5 0.0001 1 | conv3x3(64->64) | d\n";
  const auto q = SessionPlan::deserialize(text + v1_line);
  ASSERT_TRUE(q.has_value());
  ASSERT_EQ(q->convs.size(), 3u);
  EXPECT_FALSE(q->convs[2].fuse_relu);
  EXPECT_FALSE(q->convs[2].fuse_sum);
}

TEST(SessionPlanFormat, RejectsCorruptPostToken) {
  const std::string good = sample_plan().serialize();
  EXPECT_FALSE(SessionPlan::deserialize(good + "conv = 1 lowino_f4 1 1 1 post=banana | l | d\n")
                   .has_value());
  EXPECT_FALSE(SessionPlan::deserialize(good + "conv = 1 lowino_f4 1 1 1 post= | l | d\n")
                   .has_value());
  // A stray field that is not a post token is corruption, not an engine hint.
  EXPECT_FALSE(SessionPlan::deserialize(good + "conv = 1 lowino_f4 1 1 1 relu | l | d\n")
                   .has_value());
  // Extra trailing junk after a valid token is still rejected.
  EXPECT_FALSE(
      SessionPlan::deserialize(good + "conv = 1 lowino_f4 1 1 1 post=relu junk | l | d\n")
          .has_value());
}

TEST(InferenceSession, PostOpFusionShrinksOpListAndArena) {
  // Hand-off scales are calibrated on the fused op structure (a fused conv's
  // output is the post-epilogue value), so the fused-vs-unfused bit-compare
  // below only holds with the u8 hand-off off.
  ScopedRuntimeOverride u8_off("LOWINO_U8_HANDOFF", "0");
  ThreadPool& pool = ThreadPool::global();
  const Tensor<float> calib = random_input(2, 16, 1111);
  const Tensor<float> input = random_input(2, 16, 1212);

  SequentialModel fused_model = make_miniresnet();
  InferenceSession fused = forced_session(fused_model, calib, EngineKind::kLoWinoF4, &pool);

  SequentialModel plain_model = make_miniresnet();
  Tensor<float> out_fused, out_plain;
  {
    ScopedRuntimeOverride off("LOWINO_FUSE_POSTOPS", "0");
    InferenceSession plain = forced_session(plain_model, calib, EngineKind::kLoWinoF4, &pool);

    // Fusion swallows the stem relu plus each residual block's relu and
    // add+relu: strictly fewer ops and a strictly smaller arena peak (the
    // swallowed element-wise outputs drop out of the live-range set).
    EXPECT_LT(fused.op_count(), plain.op_count());
    EXPECT_LT(fused.plan().arena_bytes, plain.plan().arena_bytes);

    for (const SessionPlan::ConvChoice& c : plain.plan().convs) {
      EXPECT_FALSE(c.fuse_relu);
      EXPECT_FALSE(c.fuse_sum);
    }
    plain.run(input, out_plain);
  }
  // MiniResNet records both fusion shapes: conv->relu and conv->add+relu.
  bool saw_relu_only = false, saw_sum_relu = false;
  for (const SessionPlan::ConvChoice& c : fused.plan().convs) {
    saw_relu_only |= c.fuse_relu && !c.fuse_sum;
    saw_sum_relu |= c.fuse_relu && c.fuse_sum;
  }
  EXPECT_TRUE(saw_relu_only);
  EXPECT_TRUE(saw_sum_relu);
  EXPECT_NE(fused.plan().serialize().find("post=sum+relu"), std::string::npos);

  // The kill-switch is an A/B lever, not a semantics switch: fused and
  // unfused serving are bit-identical.
  fused.run(input, out_fused);
  ASSERT_EQ(out_fused.shape(), out_plain.shape());
  EXPECT_EQ(0, std::memcmp(out_fused.data(), out_plain.data(),
                           out_fused.size() * sizeof(float)));
}

TEST(InferenceSession, FusedPlanReplaysUnderKillSwitchBitIdentically) {
  // Plan tokens are informational: a fused plan file must load and replay in
  // a fusion-off process (engines applied per conv ordinal, epilogues run as
  // separate passes) and serve the exact same bits. The dtype tokens are the
  // exception — they assume the fused op structure — so the two kill-switches
  // compose: fusion-off replay requires hand-off-off too.
  ScopedRuntimeOverride u8_off("LOWINO_U8_HANDOFF", "0");
  ThreadPool& pool = ThreadPool::global();
  const Tensor<float> calib = random_input(2, 16, 1515);
  const Tensor<float> input = random_input(2, 16, 1616);

  SequentialModel model_a = make_miniresnet();
  InferenceSession fused = forced_session(model_a, calib, EngineKind::kLoWinoF4, &pool);
  const std::string text = fused.plan().serialize();
  ASSERT_NE(text.find("post=sum+relu"), std::string::npos);
  const auto loaded = SessionPlan::deserialize(text);
  ASSERT_TRUE(loaded.has_value());

  Tensor<float> out_fused, out_replayed;
  fused.run(input, out_fused);
  {
    ScopedRuntimeOverride off("LOWINO_FUSE_POSTOPS", "0");
    SequentialModel model_b = make_miniresnet();
    PlanOptions replay;
    replay.pool = &pool;
    replay.reuse = &*loaded;
    InferenceSession unfused = InferenceSession::compile(model_b, calib, replay);
    for (const SessionPlan::ConvChoice& c : unfused.plan().convs) {
      EXPECT_FALSE(c.fuse_relu);
      EXPECT_FALSE(c.fuse_sum);
    }
    unfused.run(input, out_replayed);
  }
  ASSERT_EQ(out_fused.shape(), out_replayed.shape());
  EXPECT_EQ(0, std::memcmp(out_fused.data(), out_replayed.data(),
                           out_fused.size() * sizeof(float)));
}

TEST(InferenceSession, FusedRunStaysAllocationFreeAndBitIdenticalToForwardEngine) {
  // forward_engine routes through the same fused epilogues (ConvLayer::
  // forward_engine_fused), so the differential holds with fusion on for an
  // engine with post-op support and for one without (graceful fallback).
  ScopedRuntimeOverride u8_off("LOWINO_U8_HANDOFF", "0");
  ThreadPool& pool = ThreadPool::global();
  const Tensor<float> calib = random_input(2, 16, 1313);
  const Tensor<float> input = random_input(2, 16, 1414);
  for (const EngineKind kind : {EngineKind::kInt8Direct, EngineKind::kFp32WinoF4}) {
    SequentialModel model = make_miniresnet();
    model.calibrate(calib, kind);
    model.finalize_calibration(kind);
    InferenceSession session = forced_session(model, calib, kind, &pool);
    const Tensor<float>& ref = model.forward_engine(input, kind, &pool);
    Tensor<float> out;
    session.run(input, out);
    ASSERT_EQ(out.shape(), ref.shape());
    EXPECT_EQ(0, std::memcmp(out.data(), ref.data(), out.size() * sizeof(float)))
        << "engine " << engine_token(kind);
    const std::uint64_t heap_before = heap_alloc_count();
    for (int i = 0; i < 3; ++i) session.run(input, out);
    EXPECT_EQ(heap_alloc_count(), heap_before)
        << "fused serve path allocated (engine " << engine_token(kind) << ')';
  }
}

// --- u8 activation hand-off -------------------------------------------------

TEST(ArenaPlanner, SlotCompatibilityChecksByteFootprint) {
  // The fused-residual in-place alias may only pair values whose byte
  // footprints match exactly — equal element counts with mixed element widths
  // would let the wider value overrun the narrower slot.
  EXPECT_TRUE(arena_slots_compatible(1024, DType::kF32, 1024, DType::kF32));
  EXPECT_TRUE(arena_slots_compatible(1024, DType::kU8, 1024, DType::kU8));
  EXPECT_FALSE(arena_slots_compatible(1024, DType::kU8, 1024, DType::kF32));
  EXPECT_FALSE(arena_slots_compatible(1024, DType::kF32, 1024, DType::kU8));
  // Equal byte footprints across widths are still one slot.
  EXPECT_TRUE(arena_slots_compatible(4096, DType::kU8, 1024, DType::kF32));
}

TEST(SessionPlanFormat, DtypeTokenRoundTrip) {
  SessionPlan p = sample_plan();
  p.convs[0].out_dtype = DType::kU8;
  p.convs[1].fuse_relu = true;
  p.convs[1].fuse_sum = true;
  p.convs[1].in_dtype = DType::kU8;
  p.convs[1].out_dtype = DType::kU8;
  const std::string text = p.serialize();
  EXPECT_NE(text.find(" dtype=f32:u8 |"), std::string::npos);
  EXPECT_NE(text.find(" post=sum+relu dtype=u8:u8 |"), std::string::npos);
  const auto q = SessionPlan::deserialize(text);
  ASSERT_TRUE(q.has_value());
  ASSERT_EQ(q->convs.size(), 2u);
  EXPECT_EQ(q->convs[0].in_dtype, DType::kF32);
  EXPECT_EQ(q->convs[0].out_dtype, DType::kU8);
  EXPECT_EQ(q->convs[1].in_dtype, DType::kU8);
  EXPECT_EQ(q->convs[1].out_dtype, DType::kU8);
  EXPECT_EQ(q->serialize(), text);
}

TEST(SessionPlanFormat, AllF32LinesStayV2Compatible) {
  // No u8 edge => no dtype token: all-FP32 conv lines are byte-identical to
  // the v2 format, so v2-era plan files keep loading (as all-FP32 plans).
  const std::string text = sample_plan().serialize();
  EXPECT_EQ(text.find("dtype=", text.find('\n')), std::string::npos);
  const std::string v2_line =
      "conv = 3 lowino_f2 25.5 0.0001 1 post=relu | conv3x3(64->64) | d\n";
  const auto q = SessionPlan::deserialize(text + v2_line);
  ASSERT_TRUE(q.has_value());
  ASSERT_EQ(q->convs.size(), 3u);
  EXPECT_EQ(q->convs[2].in_dtype, DType::kF32);
  EXPECT_EQ(q->convs[2].out_dtype, DType::kF32);
}

TEST(SessionPlanFormat, RejectsCorruptDtypeToken) {
  const std::string good = sample_plan().serialize();
  for (const char* bad : {
           "conv = 1 lowino_f4 1 1 1 dtype=u9:f32 | l | d\n",   // unknown dtype
           "conv = 1 lowino_f4 1 1 1 dtype=u8 | l | d\n",       // missing out half
           "conv = 1 lowino_f4 1 1 1 dtype=u8:f32:u8 | l | d\n",
           "conv = 1 lowino_f4 1 1 1 dtype= | l | d\n",
           "conv = 1 lowino_f4 1 1 1 dtype=:u8 | l | d\n",
           "conv = 1 lowino_f4 1 1 1 dtype=u8:u8 junk | l | d\n",
           "conv = 1 lowino_f4 1 1 1 dtype=u8:u8 post=relu | l | d\n",  // wrong order
       }) {
    EXPECT_FALSE(SessionPlan::deserialize(good + bad).has_value()) << bad;
  }
}

TEST(SessionPlanFormat, FuzzV3RoundTripAndDtypeCorruption) {
  std::mt19937 rng(20260808);
  const EngineKind kinds[] = {EngineKind::kInt8Direct, EngineKind::kLoWinoF2,
                              EngineKind::kLoWinoF4, EngineKind::kLoWinoF6};
  for (int iter = 0; iter < 200; ++iter) {
    SessionPlan p;
    p.batch = 1 + rng() % 8;
    p.arena_bytes = rng() % 100000;
    p.naive_bytes = p.arena_bytes + rng() % 100000;
    const std::size_t n = rng() % 6;
    for (std::size_t i = 0; i < n; ++i) {
      SessionPlan::ConvChoice c;
      c.op_index = rng() % 32;
      c.layer = "layer" + std::to_string(i);
      c.desc = "B1 C8 K8 H8 W8 r3";
      c.engine = kinds[rng() % 4];
      c.snr_db = static_cast<double>(rng() % 1000) / 10.0;
      c.seconds = static_cast<double>(rng() % 1000) * 1e-6;
      c.met_envelope = rng() % 2 == 0;
      c.fuse_relu = rng() % 2 == 0;
      c.fuse_sum = c.fuse_relu && rng() % 2 == 0;
      c.in_dtype = rng() % 2 == 0 ? DType::kU8 : DType::kF32;
      c.out_dtype = rng() % 2 == 0 ? DType::kU8 : DType::kF32;
      p.convs.push_back(c);
    }
    const std::string text = p.serialize();
    const auto q = SessionPlan::deserialize(text);
    ASSERT_TRUE(q.has_value()) << text;
    EXPECT_EQ(q->serialize(), text);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(q->convs[i].in_dtype, p.convs[i].in_dtype);
      EXPECT_EQ(q->convs[i].out_dtype, p.convs[i].out_dtype);
      EXPECT_EQ(q->convs[i].fuse_relu, p.convs[i].fuse_relu);
      EXPECT_EQ(q->convs[i].fuse_sum, p.convs[i].fuse_sum);
    }
    // Single-character corruption inside a dtype token must either reject the
    // whole plan or leave the text unchanged after a round trip — it must
    // never silently parse to different dtypes.
    const std::size_t at = text.find("dtype=", text.find('\n'));
    if (at != std::string::npos) {
      std::string corrupt = text;
      corrupt[at + 6 + rng() % 6] = "xq9#!"[rng() % 5];
      const auto r = SessionPlan::deserialize(corrupt);
      if (r.has_value()) EXPECT_EQ(r->serialize(), corrupt);
    }
  }
}

TEST(InferenceSession, U8HandoffAssignsEdgesAndStaysInEnvelope) {
  // Pin hand-off ON so the test also passes in the CI kill-switch rerun
  // (LOWINO_U8_HANDOFF=0 in the environment; programmatic overrides beat it).
  ScopedRuntimeOverride u8_on("LOWINO_U8_HANDOFF", "1");
  ThreadPool& pool = ThreadPool::global();
  const Tensor<float> calib = random_input(2, 16, 2021);
  const Tensor<float> input = random_input(2, 16, 2122);

  SequentialModel model = make_miniresnet();
  InferenceSession session = forced_session(model, calib, EngineKind::kLoWinoF4, &pool);

  // The type-assignment pass must find u8 edges on MiniResNet (conv chains
  // joined by relu/maxpool passthroughs) and record them in the plan.
  std::size_t u8_outs = 0, u8_ins = 0;
  for (const SessionPlan::ConvChoice& c : session.plan().convs) {
    u8_outs += c.out_dtype == DType::kU8;
    u8_ins += c.in_dtype == DType::kU8;
  }
  EXPECT_GT(u8_outs, 0u);
  EXPECT_GT(u8_ins, 0u);
  const std::string text = session.plan().serialize();
  EXPECT_NE(text.find("dtype=", text.find('\n')), std::string::npos);
  EXPECT_NE(session.plan().summary().find("u8 hand-off"), std::string::npos);

  // Whole-network accuracy: the u8-served output must clear the same SNR
  // floor the per-edge gate enforces, measured against hand-off-off serving.
  Tensor<float> out_u8;
  session.run(input, out_u8);
  Tensor<float> out_f32;
  {
    ScopedRuntimeOverride off("LOWINO_U8_HANDOFF", "0");
    SequentialModel model_f = make_miniresnet();
    InferenceSession plain = forced_session(model_f, calib, EngineKind::kLoWinoF4, &pool);
    for (const SessionPlan::ConvChoice& c : plain.plan().convs) {
      EXPECT_EQ(c.in_dtype, DType::kF32);
      EXPECT_EQ(c.out_dtype, DType::kF32);
    }
    const std::string off_text = plain.plan().serialize();
    EXPECT_EQ(off_text.find("dtype=", off_text.find('\n')), std::string::npos);
    plain.run(input, out_f32);
  }
  ASSERT_EQ(out_u8.shape(), out_f32.shape());
  const QuantError e =
      quantization_error(std::span<const float>(out_f32.data(), out_f32.size()),
                         std::span<const float>(out_u8.data(), out_u8.size()));
  EXPECT_GE(e.signal_to_noise_db, 20.0);
}

TEST(InferenceSession, U8PlanReplayServesBitIdentically) {
  ScopedRuntimeOverride u8_on("LOWINO_U8_HANDOFF", "1");
  ThreadPool& pool = ThreadPool::global();
  const Tensor<float> calib = random_input(2, 16, 2323);
  const Tensor<float> input = random_input(2, 16, 2424);

  SequentialModel model_a = make_miniresnet();
  InferenceSession first = forced_session(model_a, calib, EngineKind::kLoWinoF4, &pool);
  const std::string text = first.plan().serialize();
  ASSERT_NE(text.find("dtype=", text.find('\n')), std::string::npos);
  const auto loaded = SessionPlan::deserialize(text);
  ASSERT_TRUE(loaded.has_value());

  // Replay reconstructs the per-value dtypes from the tokens (authoritative)
  // and re-derives the hand-off scales deterministically, so a fresh model
  // with the same weights must serve the exact same bytes.
  SequentialModel model_b = make_miniresnet();
  PlanOptions replay;
  replay.pool = &pool;
  replay.reuse = &*loaded;
  InferenceSession second = InferenceSession::compile(model_b, calib, replay);
  ASSERT_EQ(second.plan().convs.size(), first.plan().convs.size());
  for (std::size_t i = 0; i < first.plan().convs.size(); ++i) {
    EXPECT_EQ(second.plan().convs[i].engine, first.plan().convs[i].engine);
    EXPECT_EQ(second.plan().convs[i].in_dtype, first.plan().convs[i].in_dtype);
    EXPECT_EQ(second.plan().convs[i].out_dtype, first.plan().convs[i].out_dtype);
  }

  Tensor<float> out_a, out_b;
  first.run(input, out_a);
  second.run(input, out_b);
  ASSERT_EQ(out_a.shape(), out_b.shape());
  EXPECT_EQ(0, std::memcmp(out_a.data(), out_b.data(), out_a.size() * sizeof(float)));
}

TEST(InferenceSession, U8ServeStaysAllocationFree) {
  // The zero-allocation steady-state contract holds with u8 edges live (the
  // u8 blocked-layout scratch is pre-warmed at compile time like the rest).
  ScopedRuntimeOverride u8_on("LOWINO_U8_HANDOFF", "1");
  SequentialModel model = make_miniresnet();
  const Tensor<float> calib = random_input(2, 16, 2525);
  const Tensor<float> input = random_input(2, 16, 2626);
  ThreadPool& pool = ThreadPool::global();
  InferenceSession session = forced_session(model, calib, EngineKind::kLoWinoF4, &pool);
  std::size_t u8_edges = 0;
  for (const SessionPlan::ConvChoice& c : session.plan().convs) {
    u8_edges += c.out_dtype == DType::kU8;
  }
  ASSERT_GT(u8_edges, 0u);

  Tensor<float> out;
  session.run(input, out);  // warm the caller-owned output tensor
  const std::uint64_t heap_before = heap_alloc_count();
  const std::uint64_t aligned_before = aligned_buffer_alloc_count();
  for (int i = 0; i < 5; ++i) session.run(input, out);
  EXPECT_EQ(heap_alloc_count(), heap_before) << "operator new called on the u8 serve path";
  EXPECT_EQ(aligned_buffer_alloc_count(), aligned_before)
      << "AlignedBuffer (re)allocated on the u8 serve path";
}

TEST(InferenceSession, EmitsOneServeSpanPerOp) {
  SequentialModel model = make_minivgg();
  const Tensor<float> calib = random_input(2, 16, 666);
  InferenceSession session =
      forced_session(model, calib, EngineKind::kLoWinoF2, &ThreadPool::global());
  const Tensor<float> input = random_input(2, 16, 667);
  Tensor<float> out;
  session.run(input, out);  // warm before enabling (no serve spans recorded)

  profiler_reset();
  profiler_set_enabled(true);
  session.run(input, out);
  profiler_set_enabled(false);
  const auto totals = profiler_stage_totals();
  const auto& serve = totals[static_cast<std::size_t>(ProfileStage::kServe)];
  EXPECT_EQ(serve.spans, session.op_count());
  EXPECT_GT(serve.seconds, 0.0);
  profiler_reset();
}

}  // namespace
}  // namespace lowino
