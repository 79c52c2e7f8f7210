// Tests for the serving subsystem: the blocking request queue, the
// dynamic token-budgeted batcher (continuous top-up, priority bands,
// deadline sheds, close-under-load wakeups), and the InferenceEngine —
// including the bit-identity guarantee (batched output == unbatched
// output per request) and the Request/Response surface. Generation
// (KV-cache decode) is covered by test_decode.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <future>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "serving/batcher.hpp"
#include "serving/engine.hpp"
#include "serving/queue.hpp"
#include "transformer/config.hpp"
#include "transformer/encoder.hpp"

namespace venom::serving {
namespace {

using namespace std::chrono_literals;

transformer::ModelConfig tiny_config() {
  return transformer::ModelConfig{.name = "tiny", .layers = 2, .hidden = 32,
                                  .heads = 4, .ffn_hidden = 64, .seq_len = 16};
}

/// A pruned tiny encoder with deterministic weights.
transformer::Encoder tiny_encoder(std::uint64_t seed = 7) {
  Rng rng(seed);
  transformer::Encoder enc(tiny_config(), rng);
  enc.sparsify({8, 2, 4});
  return enc;
}

PendingRequest make_request(std::uint64_t id, std::size_t hidden,
                            std::size_t tokens, int priority = 0) {
  PendingRequest req;
  req.id = id;
  Rng rng(100 + id);
  req.request.input = random_half_matrix(hidden, tokens, rng);
  req.request.priority = priority;
  req.enqueued = Clock::now();
  return req;
}

std::future<Response> submit_input(InferenceEngine& engine, HalfMatrix x) {
  Request req;
  req.input = std::move(x);
  return engine.submit(std::move(req));
}

// ---- BlockingQueue --------------------------------------------------------

TEST(BlockingQueue, FifoOrder) {
  BlockingQueue<int> q;
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));
  int v = 0;
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.try_pop(v));
  EXPECT_EQ(v, 2);
  EXPECT_EQ(q.size(), 1u);
}

TEST(BlockingQueue, CloseRefusesPushButDrains) {
  BlockingQueue<int> q;
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_FALSE(q.push(3));
  int v = 0;
  EXPECT_TRUE(q.pop(v));
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(q.pop(v));  // drained + closed
}

TEST(BlockingQueue, CloseWakesBlockedConsumer) {
  BlockingQueue<int> q;
  std::thread consumer([&q] {
    int v = 0;
    EXPECT_FALSE(q.pop(v));  // blocks until close, then false
  });
  std::this_thread::sleep_for(10ms);
  q.close();
  consumer.join();
}

TEST(BlockingQueue, PopUntilTimesOut) {
  BlockingQueue<int> q;
  int v = 0;
  bool timed_out = false;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.pop_until(v, t0 + 20ms, timed_out));
  EXPECT_TRUE(timed_out);
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 20ms);
}

TEST(BlockingQueue, ConcurrentProducersConsumersSeeEveryItem) {
  BlockingQueue<int> q;
  constexpr int kProducers = 4, kPerProducer = 200;
  std::atomic<int> sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p)
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i)
        EXPECT_TRUE(q.push(p * kPerProducer + i));
    });
  for (int c = 0; c < 3; ++c)
    threads.emplace_back([&q, &sum] {
      int v = 0;
      while (q.pop(v)) sum.fetch_add(v);
    });
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  q.close();
  for (std::size_t t = kProducers; t < threads.size(); ++t)
    threads[t].join();
  const int n = kProducers * kPerProducer;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// ---- DynamicBatcher -------------------------------------------------------

TEST(DynamicBatcher, CoalescesUpToTokenBudget) {
  DynamicBatcher batcher({.max_batch_tokens = 8, .max_batch_requests = 16,
                          .max_wait = 50ms});
  for (std::uint64_t i = 0; i < 3; ++i) {
    PendingRequest req = make_request(i, 4, 4);  // 4 tokens each
    EXPECT_TRUE(batcher.submit(req));
  }
  std::vector<PendingRequest> batch;
  ASSERT_TRUE(batcher.next_batch(batch));
  EXPECT_EQ(batch.size(), 2u);  // 4 + 4 = 8 fills the budget
  ASSERT_TRUE(batcher.next_batch(batch));
  EXPECT_EQ(batch.size(), 1u);  // the third flushes on the timer
}

TEST(DynamicBatcher, CarriesOverflowingRequestToNextBatch) {
  DynamicBatcher batcher({.max_batch_tokens = 10, .max_batch_requests = 16,
                          .max_wait = 50ms});
  PendingRequest a = make_request(1, 4, 6);
  PendingRequest b = make_request(2, 4, 6);
  ASSERT_TRUE(batcher.submit(a));
  ASSERT_TRUE(batcher.submit(b));
  std::vector<PendingRequest> batch;
  ASSERT_TRUE(batcher.next_batch(batch));  // 6 + 6 > 10 -> b stays queued
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 1u);
  ASSERT_TRUE(batcher.next_batch(batch));  // b seeds the next batch
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 2u);
}

TEST(DynamicBatcher, OversizedRequestFormsItsOwnBatch) {
  DynamicBatcher batcher({.max_batch_tokens = 8, .max_batch_requests = 16,
                          .max_wait = 50ms});
  PendingRequest big = make_request(1, 4, 32);  // 4x the budget
  ASSERT_TRUE(batcher.submit(big));
  std::vector<PendingRequest> batch;
  ASSERT_TRUE(batcher.next_batch(batch));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].tokens(), 32u);
}

TEST(DynamicBatcher, MaxWaitFlushesPartialBatch) {
  DynamicBatcher batcher({.max_batch_tokens = 1024,
                          .max_batch_requests = 16, .max_wait = 20ms});
  PendingRequest lone = make_request(1, 4, 4);
  ASSERT_TRUE(batcher.submit(lone));
  std::vector<PendingRequest> batch;
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(batcher.next_batch(batch));  // far below budget: timer flushes
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 5s);
}

TEST(DynamicBatcher, LateArrivalJoinsFormingBatch) {
  // Continuous batching: the flush timer is generous (2 s), so the batch
  // must close on its token budget — which it can only reach if requests
  // submitted while the batch is already forming top it up.
  DynamicBatcher batcher({.max_batch_tokens = 16, .max_batch_requests = 8,
                          .max_wait = 2s});
  PendingRequest a = make_request(1, 4, 4);
  ASSERT_TRUE(batcher.submit(a));
  std::thread late([&] {
    std::this_thread::sleep_for(30ms);
    PendingRequest b = make_request(2, 4, 4);
    EXPECT_TRUE(batcher.submit(b));
    std::this_thread::sleep_for(30ms);
    PendingRequest c = make_request(3, 4, 8);  // 4 + 4 + 8 fills the budget
    EXPECT_TRUE(batcher.submit(c));
  });
  std::vector<PendingRequest> batch;
  ASSERT_TRUE(batcher.next_batch(batch));
  late.join();
  ASSERT_EQ(batch.size(), 3u);  // both late arrivals joined, none split
  EXPECT_EQ(batch[0].id, 1u);
  EXPECT_EQ(batch[1].id, 2u);
  EXPECT_EQ(batch[2].id, 3u);
}

TEST(DynamicBatcher, HigherPriorityJumpsTheQueue) {
  // Budget of one request per batch: dequeue order IS priority order.
  DynamicBatcher batcher({.max_batch_tokens = 4, .max_batch_requests = 1,
                          .max_wait = 1ms});
  PendingRequest a = make_request(1, 4, 4, /*priority=*/0);
  PendingRequest b = make_request(2, 4, 4, /*priority=*/0);
  PendingRequest c = make_request(3, 4, 4, /*priority=*/5);
  ASSERT_TRUE(batcher.submit(a));
  ASSERT_TRUE(batcher.submit(b));
  ASSERT_TRUE(batcher.submit(c));
  std::vector<PendingRequest> batch;
  std::vector<std::uint64_t> order;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(batcher.next_batch(batch));
    ASSERT_EQ(batch.size(), 1u);
    order.push_back(batch[0].id);
  }
  // c overtakes both; a and b stay FIFO within their band.
  EXPECT_EQ(order, (std::vector<std::uint64_t>{3, 1, 2}));
}

TEST(DynamicBatcher, ShedsExpiredRequestsWithTypedError) {
  DynamicBatcher batcher({.max_batch_tokens = 8, .max_batch_requests = 4,
                          .max_wait = 5ms});
  PendingRequest expired = make_request(1, 4, 4);
  expired.request.deadline = Clock::now() - 1ms;  // already lapsed
  auto expired_fut = expired.result.get_future();
  ASSERT_TRUE(batcher.submit(expired));
  PendingRequest live = make_request(2, 4, 4);
  ASSERT_TRUE(batcher.submit(live));
  std::vector<PendingRequest> batch;
  ASSERT_TRUE(batcher.next_batch(batch));
  ASSERT_EQ(batch.size(), 1u);  // the expired request never reaches a batch
  EXPECT_EQ(batch[0].id, 2u);
  EXPECT_EQ(batcher.shed(), 1u);
  try {
    expired_fut.get();
    FAIL() << "expired request should fail, not resolve";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.reason(), AdmissionReason::kDeadlineExceeded);
  }
}

TEST(DynamicBatcher, EmptyQueueShutdownReturnsFalse) {
  DynamicBatcher batcher({.max_batch_tokens = 8, .max_batch_requests = 4,
                          .max_wait = 10ms});
  std::vector<PendingRequest> batch;
  std::thread worker([&] { EXPECT_FALSE(batcher.next_batch(batch)); });
  std::this_thread::sleep_for(10ms);
  batcher.close();  // wakes the blocked collector with no work
  worker.join();
  // A refused request must come back intact: its promise is still live,
  // so the submitter can deliver the failure through the future it
  // already handed out.
  PendingRequest late = make_request(1, 4, 4);
  auto fut = late.result.get_future();
  EXPECT_FALSE(batcher.submit(late));
  late.result.set_exception(
      std::make_exception_ptr(Error("engine is shut down")));
  EXPECT_THROW(fut.get(), Error);
}

TEST(DynamicBatcher, CloseWakesEveryBlockedWorker) {
  // Regression test for the old two-mutex design, where workers queued
  // behind the collector mutex could not be woken by close() and
  // shutdown hung. All workers now block on the condition variable with
  // the mutex released, so close() must wake every one promptly — with a
  // 10-minute flush timer, a prompt return can only come from the wakeup.
  DynamicBatcher batcher({.max_batch_tokens = 8, .max_batch_requests = 4,
                          .max_wait = 10min});
  constexpr std::size_t kWorkers = 4;
  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < kWorkers; ++i)
    workers.emplace_back([&] {
      std::vector<PendingRequest> batch;
      EXPECT_FALSE(batcher.next_batch(batch));
    });
  std::this_thread::sleep_for(50ms);  // let every worker block
  const auto t0 = std::chrono::steady_clock::now();
  batcher.close();
  for (auto& w : workers) w.join();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 30s);
}

TEST(DynamicBatcher, CloseFlushesFormingBatch) {
  // A worker mid-top-up (batch seeded, waiting for company under a huge
  // flush timer) must also be woken by close() and return what it has.
  DynamicBatcher batcher({.max_batch_tokens = 64, .max_batch_requests = 8,
                          .max_wait = 10min});
  PendingRequest lone = make_request(1, 4, 4);
  ASSERT_TRUE(batcher.submit(lone));
  std::vector<PendingRequest> batch;
  std::thread worker([&] {
    EXPECT_TRUE(batcher.next_batch(batch));  // returns the partial batch
    std::vector<PendingRequest> next;
    EXPECT_FALSE(batcher.next_batch(next));  // then drained + closed
  });
  std::this_thread::sleep_for(50ms);  // let the worker enter top-up
  const auto t0 = std::chrono::steady_clock::now();
  batcher.close();
  worker.join();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 30s);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 1u);
}

TEST(DynamicBatcher, DrainsQueuedWorkAfterClose) {
  DynamicBatcher batcher({.max_batch_tokens = 4, .max_batch_requests = 4,
                          .max_wait = 10ms});
  PendingRequest a = make_request(1, 4, 4);
  PendingRequest b = make_request(2, 4, 4);
  ASSERT_TRUE(batcher.submit(a));
  ASSERT_TRUE(batcher.submit(b));
  batcher.close();
  std::vector<PendingRequest> batch;
  std::size_t seen = 0;
  while (batcher.next_batch(batch)) seen += batch.size();
  EXPECT_EQ(seen, 2u);
}

// ---- InferenceEngine ------------------------------------------------------

TEST(InferenceEngine, OutputsBitIdenticalToUnbatchedForward) {
  transformer::Encoder enc = tiny_encoder();
  // References computed through the plain forward() before the engine
  // takes ownership.
  std::vector<HalfMatrix> inputs, refs;
  for (std::uint64_t i = 0; i < 6; ++i) {
    Rng rng(200 + i);
    inputs.push_back(random_half_matrix(32, 4 + 4 * (i % 3), rng));
    refs.push_back(enc.forward(inputs.back()));
  }

  InferenceEngine engine(std::move(enc),
                         {.batching = {.max_batch_tokens = 16,
                                       .max_batch_requests = 8,
                                       .max_wait = 5ms}});
  std::vector<std::future<Response>> futs;
  for (const HalfMatrix& x : inputs) futs.push_back(submit_input(engine, x));
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const Response r = futs[i].get();
    ASSERT_EQ(r.output.rows(), refs[i].rows());
    ASSERT_EQ(r.output.cols(), refs[i].cols());
    for (std::size_t e = 0; e < r.output.size(); ++e)
      ASSERT_EQ(r.output.flat()[e].bits(), refs[i].flat()[e].bits())
          << "request " << i << " element " << e;
    EXPECT_EQ(r.replica, 0u);  // a bare engine is replica 0
    EXPECT_GE(r.batch_tokens, r.output.cols());
  }
  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.requests, 6u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GT(stats.plan_cache_hits + stats.plan_cache_misses, 0u);
}

TEST(InferenceEngine, ConcurrentSubmitFromManyThreads) {
  constexpr std::size_t kThreads = 4, kPerThread = 8;
  transformer::Encoder enc = tiny_encoder(11);
  std::vector<HalfMatrix> inputs(kThreads * kPerThread);
  std::vector<HalfMatrix> refs(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    Rng rng(300 + i);
    inputs[i] = random_half_matrix(32, 4, rng);
    refs[i] = enc.forward(inputs[i]);
  }

  InferenceEngine engine(std::move(enc),
                         {.batching = {.max_batch_tokens = 24,
                                       .max_batch_requests = 6,
                                       .max_wait = 2ms},
                          .workers = 2});
  std::vector<std::future<Response>> futs(inputs.size());
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kThreads; ++t)
    submitters.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t idx = t * kPerThread + i;
        futs[idx] = submit_input(engine, inputs[idx]);
      }
    });
  for (auto& s : submitters) s.join();
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const Response r = futs[i].get();
    for (std::size_t e = 0; e < r.output.size(); ++e)
      ASSERT_EQ(r.output.flat()[e].bits(), refs[i].flat()[e].bits()) << i;
  }
  EXPECT_EQ(engine.stats().requests, inputs.size());
}

TEST(InferenceEngine, ShutdownDrainsQueuedRequests) {
  transformer::Encoder enc = tiny_encoder(13);
  InferenceEngine engine(std::move(enc),
                         {.batching = {.max_batch_tokens = 8,
                                       .max_batch_requests = 2,
                                       .max_wait = 1ms}});
  std::vector<std::future<Response>> futs;
  for (std::uint64_t i = 0; i < 5; ++i) {
    Rng rng(400 + i);
    futs.push_back(submit_input(engine, random_half_matrix(32, 4, rng)));
  }
  engine.shutdown();
  for (auto& f : futs) EXPECT_NO_THROW(f.get());  // all served, none dropped
  Rng rng(999);
  try {
    submit_input(engine, random_half_matrix(32, 4, rng));
    FAIL() << "submit after shutdown should throw";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.reason(), AdmissionReason::kShutdown);
  }
}

TEST(InferenceEngine, CloseUnderLoadResolvesEveryFuture) {
  // Shutdown while multiple workers are mid-stream: every submitted
  // request's future must resolve (served — never silently dropped), the
  // join must be prompt even though the flush timer is huge, and the
  // load gauge must return to zero.
  transformer::Encoder enc = tiny_encoder(29);
  InferenceEngine engine(std::move(enc),
                         {.batching = {.max_batch_tokens = 8,
                                       .max_batch_requests = 2,
                                       .max_wait = 10min},
                          .workers = 4});
  std::vector<std::future<Response>> futs;
  for (std::uint64_t i = 0; i < 16; ++i) {
    Rng rng(600 + i);
    futs.push_back(submit_input(engine, random_half_matrix(32, 4, rng)));
  }
  const auto t0 = std::chrono::steady_clock::now();
  engine.shutdown();  // drains the queue, wakes all 4 workers, joins them
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 60s);
  for (auto& f : futs) EXPECT_NO_THROW(f.get());
  EXPECT_EQ(engine.load_tokens(), 0u);
  EXPECT_EQ(engine.stats().requests, futs.size());
}

TEST(InferenceEngine, PastDeadlineIsShedNotExecuted) {
  transformer::Encoder enc = tiny_encoder(31);
  InferenceEngine engine(std::move(enc),
                         {.batching = {.max_batch_tokens = 8,
                                       .max_batch_requests = 2,
                                       .max_wait = 1ms}});
  Rng rng(700);
  Request req;
  req.input = random_half_matrix(32, 4, rng);
  req.deadline = Clock::now() - 1ms;  // lapsed before it can run
  auto fut = engine.submit(std::move(req));
  try {
    fut.get();
    FAIL() << "a lapsed-deadline request should be shed";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.reason(), AdmissionReason::kDeadlineExceeded);
  }
  EXPECT_EQ(engine.stats().shed, 1u);
  // The gauge unwinds through on_done even for sheds.
  EXPECT_EQ(engine.load_tokens(), 0u);
}

TEST(InferenceEngine, RejectsWrongFeatureCount) {
  InferenceEngine engine(tiny_encoder(17), {});
  Rng rng(1);
  EXPECT_THROW(submit_input(engine, random_half_matrix(16, 4, rng)), Error);
  EXPECT_THROW(submit_input(engine, HalfMatrix(32, 0)), Error);
}

TEST(InferenceEngine, BadRequestRejectedAtSubmitNotInBatch) {
  // Dynamic score sparsity needs tokens % 4 == 0; a 5-token request is
  // rejected at submit() — before it can enter a batch and fail the
  // futures of well-formed requests coalesced with it — and the engine
  // keeps serving.
  transformer::Encoder enc = tiny_encoder(19);
  enc.set_dynamic_score_sparsity(NmPattern{2, 4});
  InferenceEngine engine(std::move(enc),
                         {.batching = {.max_batch_tokens = 16,
                                       .max_batch_requests = 4,
                                       .max_wait = 1ms}});
  Rng rng(2);
  EXPECT_THROW(submit_input(engine, random_half_matrix(32, 5, rng)), Error);
  auto good = submit_input(engine, random_half_matrix(32, 4, rng));
  EXPECT_NO_THROW(good.get());
}

TEST(InferenceEngine, SteadyStateReusesPlansAndArena) {
  transformer::Encoder enc = tiny_encoder(23);
  InferenceEngine engine(std::move(enc),
                         {.batching = {.max_batch_tokens = 8,
                                       .max_batch_requests = 2,
                                       .max_wait = 1ms}});
  for (int round = 0; round < 8; ++round) {
    Rng rng(500 + round);
    submit_input(engine, random_half_matrix(32, 8, rng)).get();
  }
  const ServingStats stats = engine.stats();
  // Each sparse layer misses once per batch width, then hits forever.
  EXPECT_GT(stats.plan_cache_hits, stats.plan_cache_misses);
  EXPECT_GT(stats.peak_arena_bytes, 0u);
  EXPECT_GT(stats.p50_ms, 0.0);
  EXPECT_GE(stats.p99_ms, stats.p50_ms);
}

TEST(InferenceEngine, ResponseCarriesServingTelemetry) {
  InferenceEngine engine(tiny_encoder(37), {});
  Rng rng(800);
  Request req;
  req.input = random_half_matrix(32, 4, rng);
  req.tenant = "telemetry";
  const Response r = engine.submit(std::move(req)).get();
  EXPECT_GT(r.id, 0u);
  EXPECT_GE(r.queue_ms, 0.0);
  EXPECT_GT(r.exec_ms, 0.0);
  EXPECT_GE(r.batch_tokens, 4u);
}

}  // namespace
}  // namespace venom::serving
