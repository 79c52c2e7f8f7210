// Serving walkthrough: scaled sparse-transformer inference with the
// Request/Response API, an EngineGroup of replicas, and admission
// control.
//
//   $ ./example_serving
//
// Walks through the serving layer end to end:
//   1. build a small encoder and prune every linear weight to V:N:M,
//   2. take a reference forward through a caller-owned ops::ExecContext,
//   3. hand the encoder to an EngineGroup — N replicas share the
//      read-only weights while each dispatches through a private
//      ExecContext, behind least-queued-tokens routing,
//   4. submit serving::Requests (tenant, priority, deadline) and read
//      the serving telemetry off each Response,
//   5. verify a routed request's output is bit-identical to the
//      unbatched forward, watch a rate-limited tenant get shed with a
//      typed AdmissionError, and read the group statistics.
#include <cstdio>
#include <future>
#include <vector>

#include "common/rng.hpp"
#include "ops/ops.hpp"
#include "serving/router.hpp"
#include "transformer/config.hpp"
#include "transformer/encoder.hpp"

using namespace venom;

int main() {
  // 1. A 2-layer encoder, every weight magnitude-pruned to 64:2:8 (75%
  //    sparsity) so all six GEMMs per layer run through Spatha.
  const transformer::ModelConfig model{.name = "demo", .layers = 2,
                                       .hidden = 128, .heads = 4,
                                       .ffn_hidden = 256, .seq_len = 16};
  Rng rng(7);
  transformer::Encoder encoder(model, rng);
  encoder.sparsify({64, 2, 8});

  // 2. A reference forward through a caller-owned execution context (the
  //    thread pool, plan cache, tuning cache, and kernel scratch a
  //    dispatch runs against). Computed before the group takes ownership
  //    of the encoder.
  ops::ExecContext ctx;
  Rng data_rng(100);
  const HalfMatrix probe = random_half_matrix(model.hidden, 8, data_rng);
  const HalfMatrix probe_ref = encoder.forward(probe, &ctx);
  std::printf("reference forward: plan cache %zu misses (one per pruned "
              "weight), %zu hits\n",
              ctx.plan_cache().misses(), ctx.plan_cache().hits());

  // 3. The group owns the encoder once, shared read-only across two
  //    replicas; each replica batches up to 64 tokens per forward pass
  //    (waiting at most 2 ms for stragglers) through its own private
  //    ExecContext. Admission control caps the in-flight queue and rate-
  //    limits the "guest" tenant to a handful of tokens per second.
  serving::Options opts;
  opts.batching.max_batch_tokens = 64;
  opts.batching.max_batch_requests = 16;
  opts.batching.max_wait = std::chrono::milliseconds(2);
  opts.replicas = 2;
  opts.admission.max_queued_tokens = 512;
  opts.admission.tenants["guest"] = {.tokens_per_s = 8.0,
                                     .burst_tokens = 16.0};
  serving::EngineGroup group(std::move(encoder), opts);

  // 4. Submit a burst of requests with ragged lengths (4..16 tokens).
  //    submit() is thread-safe; here one thread queues them all, the
  //    router spreads them over the least-loaded replicas, and each
  //    replica's batcher packs them along the token axis.
  std::vector<std::future<serving::Response>> futures;
  for (int i = 0; i < 12; ++i) {
    Rng req_rng(200 + i);
    serving::Request req;
    req.input = random_half_matrix(model.hidden, 4 + 4 * (i % 4), req_rng);
    req.tenant = "demo";
    req.priority = i % 2;  // odd requests jump the queue within a batch
    futures.push_back(group.submit(std::move(req)));
  }

  for (auto& f : futures) {
    const serving::Response r = f.get();
    std::printf("served request %llu on replica %u: %zux%zu output, "
                "queued %.3f ms, exec %.3f ms, co-batched with %zu tokens\n",
                static_cast<unsigned long long>(r.id), r.replica,
                r.output.rows(), r.output.cols(), r.queue_ms, r.exec_ms,
                r.batch_tokens);
  }

  // 5a. Routing and batching must not change results: the probe's served
  //     output is bit-identical to the unbatched forward computed above,
  //     whichever replica and batch served it.
  serving::Request probe_req;
  probe_req.input = probe;
  const serving::Response probe_resp = group.submit(std::move(probe_req)).get();
  bool identical = probe_resp.output.rows() == probe_ref.rows() &&
                   probe_resp.output.cols() == probe_ref.cols();
  for (std::size_t i = 0; identical && i < probe_ref.size(); ++i)
    identical =
        probe_resp.output.flat()[i].bits() == probe_ref.flat()[i].bits();
  std::printf("probe output bit-identical to unbatched forward: %s\n",
              identical ? "yes" : "NO");

  // 5b. Overload is shed with a typed error, never an unbounded queue:
  //     the "guest" tenant's bucket holds 16 tokens, so a second 16-token
  //     request inside the same second is rejected at submit().
  bool guest_shed = false;
  try {
    for (int i = 0; i < 2; ++i) {
      Rng guest_rng(300 + i);
      serving::Request req;
      req.input = random_half_matrix(model.hidden, 16, guest_rng);
      req.tenant = "guest";
      group.submit(std::move(req)).get();
    }
  } catch (const serving::AdmissionError& e) {
    guest_shed = e.reason() == serving::AdmissionReason::kRateLimited;
    std::printf("guest tenant shed as expected: %s\n", e.what());
  }

  const serving::GroupStats stats = group.stats();
  std::printf("group served %zu requests (%zu tokens) in %zu batches "
              "across %zu replicas; %zu admitted, %zu rate-limited\n",
              stats.requests, stats.tokens, stats.batches,
              stats.replicas.size(), stats.admission.admitted,
              stats.admission.rejected_rate);
  for (std::size_t i = 0; i < stats.replicas.size(); ++i) {
    const serving::ServingStats& s = stats.replicas[i];
    std::printf("  replica %zu: %zu requests, %zu batches, avg %.1f "
                "tokens/batch, p50 %.3f ms, plan cache %zu hits / %zu "
                "misses\n",
                i, s.requests, s.batches, s.avg_batch_tokens, s.p50_ms,
                s.plan_cache_hits, s.plan_cache_misses);
  }
  return identical && guest_shed ? 0 : 1;
}
