// The serving area, profiled in every traced run: a BatchingServer serving
// MiniResNet with two single-thread workers (partitioned), driven by four
// client threads through an open loop of seeded Poisson arrivals at a fixed
// mid rate, the same at a fixed high rate, and a closed loop in which each
// client waits for its reply. (Its end-to-end form, the serve-open workload,
// was dropped as unsteady on the reference host; see perfbench/README.md.)
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "harness.h"
#include "nn/model_zoo.h"
#include "parallel/thread_pool.h"
#include "serve/server.h"
#include "serve/session.h"

namespace perfbench {
namespace {

using lowino::BatchingServer;
using lowino::EngineKind;
using lowino::InferenceSession;
using lowino::ServeResult;
using lowino::Tensor;
using lowino::ThreadPool;

constexpr std::size_t kClients = 4;

struct Serve {
  lowino::SequentialModel model;
  Tensor<float> calib;  ///< max_batch images
  lowino::ServerOptions options;
  std::unique_ptr<BatchingServer> server;
  std::vector<Tensor<float>> images;        ///< 1 x 1 x hw x hw each
  std::vector<std::vector<float>> refs;     ///< expected output per image
  std::atomic<std::uint64_t> next_request{0};
};

void make_serve(const RunArgs& args, Serve& s) {
  s.model = lowino::make_miniresnet(kServeHw);
  s.options.max_batch = kServeMaxBatch;
  s.options.num_workers = kServeWorkers;
  s.options.threads_per_worker = 1;
  s.options.linger_ns = kServeLingerNs;
  s.options.plan.candidates = {EngineKind::kInt8Direct,  EngineKind::kLoWinoF2,
                               EngineKind::kLoWinoF4,    EngineKind::kLoWinoF6,
                               EngineKind::kInt8Conv1x1, EngineKind::kInt8Depthwise};
  s.options.plan.seconds_per_candidate = kServeSecondsPerCandidate;
  s.calib = random_tensor({kServeMaxBatch, 1, kServeHw, kServeHw},
                          derive_seed(kCalibSeed, "serve.calib"));
  for (std::size_t i = 0; i < kServeImages; ++i) {
    s.images.push_back(random_tensor({1, 1, kServeHw, kServeHw},
                                     derive_seed(args.seed, "serve.image." + std::to_string(i))));
  }
}

/// Constructs the server (compile + replay + worker start); returns seconds.
double construct(Serve& s, Tracer* tracer) {
  s.server.reset();
  SpanScope span(tracer, "BatchingServer::BatchingServer");
  const auto t0 = Clock::now();
  s.server = std::make_unique<BatchingServer>(s.model, s.calib, s.options);
  return seconds_since(t0);
}

/// A single-thread session that replays the server's plan on the server's
/// calibration batch: it computes, lane by lane, what a worker computes.
InferenceSession replay_session(Serve& s, ThreadPool& one) {
  lowino::PlanOptions replay = s.options.plan;
  replay.reuse = &s.server->plan();
  replay.pool = &one;
  return InferenceSession::compile(s.model, s.calib, replay);
}

/// The expected response of every image, from the replayed plan.
void make_refs(Serve& s, InferenceSession& ref) {
  const std::size_t mb = s.options.max_batch, image = s.images[0].size();
  Tensor<float> batch(s.calib.shape()), out;
  s.refs.assign(s.images.size(), {});
  for (std::size_t base = 0; base < s.images.size(); base += mb) {
    for (std::size_t lane = 0; lane < mb; ++lane) {
      const Tensor<float>& img = s.images[(base + lane) % s.images.size()];
      std::memcpy(batch.data() + lane * image, img.data(), image * sizeof(float));
    }
    ref.run(batch, out);
    const std::size_t per = out.size() / mb;
    for (std::size_t lane = 0; lane < mb && base + lane < s.images.size(); ++lane) {
      s.refs[base + lane].assign(out.data() + lane * per, out.data() + (lane + 1) * per);
    }
  }
}

/// Client-side view of one phase.
struct Phase {
  std::vector<double> latency_ms;  ///< kOk only, from each request's due time
  std::vector<double> late_ms;     ///< generator lateness (send - due), open loop
  std::uint64_t sent = 0, ok = 0, ok_within = 0;
  std::uint64_t refused = 0, expired = 0, failed = 0, wrong = 0;
  double wall_s = 0.0;
  lowino::ServeStats before, after;  ///< server counters around the phase
};

/// Pools the client-side samples and counters of `from` into `into`.
void merge(Phase& into, const Phase& from) {
  into.latency_ms.insert(into.latency_ms.end(), from.latency_ms.begin(), from.latency_ms.end());
  into.late_ms.insert(into.late_ms.end(), from.late_ms.begin(), from.late_ms.end());
  into.sent += from.sent;
  into.ok += from.ok;
  into.ok_within += from.ok_within;
  into.refused += from.refused;
  into.expired += from.expired;
  into.failed += from.failed;
  into.wrong += from.wrong;
}

/// Runs one phase with kClients threads for `seconds`. `rate` > 0 is an open
/// loop: each client follows its own seeded Poisson schedule at rate /
/// kClients, sends at the due time (or as soon as its previous request
/// returns, if that is later) and is timed from the due time. `rate` == 0 is a
/// closed loop: each client sends its next request when the previous one
/// returns. A refused request counts as failed; the client then waits for its
/// next due time (closed loop: one linger period) and never spins.
Phase run_phase(Serve& s, double rate, double seconds, const std::string& label,
                std::uint64_t seed, Result& result, Tracer* tracer) {
  struct Client {
    std::vector<std::int64_t> due_ns;  ///< offsets from the phase start
    std::vector<std::uint32_t> image;
    Phase p;
  };
  std::vector<Client> clients(kClients);
  const auto horizon = static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t c = 0; c < kClients; ++c) {
    lowino::Rng rng(derive_seed(seed, "serve." + label + ".client" + std::to_string(c)));
    if (rate > 0.0) {
      const double per_client = rate / static_cast<double>(kClients);
      double t = 0.0;
      for (;;) {
        t += -std::log(1.0 - rng.next_double()) / per_client;
        if (t * 1e9 >= static_cast<double>(horizon)) break;
        clients[c].due_ns.push_back(static_cast<std::int64_t>(t * 1e9));
        clients[c].image.push_back(static_cast<std::uint32_t>(rng.next_below(s.images.size())));
      }
    }
  }

  BatchingServer& server = *s.server;
  const lowino::ServeStats before = server.stats();
  const std::int64_t start = now_ns() + 1000000;  // 1 ms for the clients to start
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client& cl = clients[c];
      std::vector<float> out(server.output_elems());
      const bool open = rate > 0.0;
      lowino::Rng closed_rng(derive_seed(seed, "serve." + label + ".closed" + std::to_string(c)));
      const auto sleep_until = [](std::int64_t t) {
        const std::int64_t wait = t - now_ns();
        if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      };
      if (!open) sleep_until(start);
      for (std::size_t i = 0;; ++i) {
        std::int64_t due = 0;
        std::uint32_t img = 0;
        if (open) {
          if (i >= cl.due_ns.size()) break;
          due = start + cl.due_ns[i];
          sleep_until(due);
          cl.p.late_ms.push_back(1e-6 * static_cast<double>(now_ns() - due));
          img = cl.image[i];
        } else {
          due = now_ns();
          if (due - start >= horizon) break;
          img = static_cast<std::uint32_t>(closed_rng.next_below(s.images.size()));
        }
        ++cl.p.sent;
        ServeResult r;
        {
          SpanScope span(tracer, "BatchingServer::serve", s.next_request.fetch_add(1));
          r = server.serve(s.images[img].span(), out);
        }
        const double ms = 1e-6 * static_cast<double>(now_ns() - due);
        switch (r) {
          case ServeResult::kOk:
            if (std::memcmp(out.data(), s.refs[img].data(), out.size() * sizeof(float)) != 0) {
              ++cl.p.wrong;
              break;
            }
            ++cl.p.ok;
            cl.p.ok_within += ms <= kServeSloMs ? 1 : 0;
            cl.p.latency_ms.push_back(ms);
            break;
          case ServeResult::kQueueFull:
            ++cl.p.refused;
            if (!open) std::this_thread::sleep_for(std::chrono::nanoseconds(s.options.linger_ns));
            break;
          case ServeResult::kExpired:
            ++cl.p.expired;
            break;
          default:
            ++cl.p.failed;
            break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Phase p;
  p.wall_s = 1e-9 * static_cast<double>(now_ns() - start);
  p.before = before;
  p.after = server.stats();
  for (const Client& cl : clients) merge(p, cl.p);
  result.attempted += p.sent;
  result.failed += p.sent - p.ok;
  result.wrong += p.wrong;
  return p;
}

}  // namespace

void probe_serve(const RunArgs& args, double seconds, TraceSession& trace, Result& result) {
  Serve s;
  make_serve(args, s);
  trace.enable(true);
  result.info("serve.construct_s", construct(s, trace.active()), "s");
  trace.notes.push_back("serve miniresnet: " + s.server->plan().summary());
  ThreadPool one(1);
  InferenceSession ref = replay_session(s, one);
  make_refs(s, ref);

  // Worker-shaped sessions: one thread, batch max_batch (the replayed plan)
  // and batch 1 (planned by the normal planner).
  const auto median_run_ms = [&](InferenceSession& session, const Tensor<float>& in) {
    Tensor<float> out;
    return 1e3 * time_for(
                     [&] {
                       SpanScope span(trace.active(), "InferenceSession::run");
                       session.run(in, out);
                     },
                     0.05 * seconds);
  };
  result.info("serve.batch_b4_ms", median_run_ms(ref, s.calib), "ms");
  {
    lowino::PlanOptions b1 = s.options.plan;
    b1.pool = &one;
    InferenceSession single = InferenceSession::compile(s.model, s.images[0], b1);
    result.info("serve.batch_b1_ms", median_run_ms(single, s.images[0]), "ms");
  }

  run_phase(s, 0.0, 0.2, "warmup", args.seed, result, trace.active());  // checked
  const Phase mid = run_phase(s, kServeRateMid, 0.35 * seconds, "mid", args.seed,
                              result, trace.active());
  const Phase high = run_phase(s, kServeRateHigh, 0.35 * seconds, "high",
                               args.seed, result, trace.active());
  const Phase closed = run_phase(s, 0.0, 0.2 * seconds, "closed", args.seed, result,
                                 trace.active());
  s.server->stop();
  trace.enable(false);

  const auto& b = high.before;
  const auto& a = high.after;
  const double served = static_cast<double>(a.served - b.served);
  const double batches = static_cast<double>(a.batches - b.batches);
  result.info("serve.mid_p99_ms", tail(mid.latency_ms).value, "ms");
  result.info("serve.high_p50_ms", median(high.latency_ms), "ms");
  result.info("serve.high_p99_ms", tail(high.latency_ms).value, "ms");
  result.info("serve.high_slo_frac",
              high.sent == 0 ? 0.0
                             : static_cast<double>(high.ok_within) /
                                   static_cast<double>(high.sent),
              "1");
  result.info("serve.capacity_qps", static_cast<double>(closed.ok) / closed.wall_s, "1/s");
  result.info("serve.queue_wait_ms",
              served > 0 ? 1e-6 * static_cast<double>(a.queue_ns_sum - b.queue_ns_sum) / served
                         : 0.0,
              "ms");
  result.info("serve.mean_batch",
              batches > 0 ? static_cast<double>(a.batched_requests - b.batched_requests) / batches
                          : 0.0,
              "count");
  result.info("serve.linger_close_frac",
              batches > 0 ? static_cast<double>(a.closed_linger - b.closed_linger) / batches : 0.0,
              "1");
  result.info("serve.rejected", static_cast<double>(mid.refused + high.refused + closed.refused),
              "count");
  result.info("serve.expired", static_cast<double>(mid.expired + high.expired + closed.expired),
              "count");
  result.info("serve.failed",
              static_cast<double>(mid.failed + high.failed + closed.failed + mid.wrong +
                                  high.wrong + closed.wrong),
              "count");
  result.info("serve.gen_late_p99_ms", tail(high.late_ms).value, "ms");
}

}  // namespace perfbench
