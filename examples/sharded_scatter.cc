// Sharded scatter-gather: the hidden database as N regional shards behind
// one logical kNN endpoint, with one shard running hot.
//
// The example stands up the same USA scenario three ways — a monolithic
// server, a clean 8-shard stack, and an 8-shard stack where shard 5 drops
// 40% of attempts — and shows the two contracts DESIGN.md §4.11 argues:
// the merged top-k is bit-identical to the monolithic answer whenever
// every lane delivers (retries included), and a lane that exhausts its
// retries surfaces as a *typed* failure instead of a silently short page.

#include <cstdio>
#include <string>

#include "core/aggregate.h"
#include "core/lr_agg.h"
#include "core/runner.h"
#include "core/sampler.h"
#include "lbs/client.h"
#include "lbs/server.h"
#include "lbs/sharded_server.h"
#include "obs/metrics.h"
#include "transport/sharded_transport.h"
#include "workload/scenarios.h"

int main() {
  using namespace lbsagg;

  UsaOptions options;
  options.num_pois = 20000;
  const UsaScenario usa = BuildUsaScenario(options);
  const int k = 5;

  // The monolithic reference.
  LbsServer mono(usa.dataset.get(), {.max_k = 10});

  // The sharded deployment: 8 Z-order shards, indexes built in parallel.
  ShardedLbsServer sharded(usa.dataset.get(),
                           {.num_shards = 8, .build_threads = 8,
                            .server = {.max_k = 10}});

  // Metadata-only server for the client side (brute backend: O(n) setup,
  // never searched — all kNN goes over the wire).
  LbsServer meta(usa.dataset.get(),
                 {.max_k = 10, .index_backend = SpatialBackend::kBruteForce});

  ShardedTransportOptions topts;
  topts.rate_limit = {.capacity = 16.0, .refill_per_sec = 100.0};  // per lane
  topts.shard_faults.resize(8);
  topts.shard_faults[5].transient_error_rate = 0.4;  // one hot shard
  topts.retry.max_attempts = 8;
  topts.seed = 0xf1a;
  obs::MetricsRegistry registry;  // the wire's transport.* cells
  topts.registry = &registry;
  ShardedTransport transport(&sharded, topts);
  const auto counter = [&registry](const std::string& name) {
    return static_cast<unsigned long long>(
        registry.GetCounter(name)->Value());
  };

  // Same probes through both stacks: every delivered sharded reply must
  // equal the monolithic page bit for bit, retried lanes included.
  Rng rng(7);
  int compared = 0, identical = 0;
  for (int i = 0; i < 200; ++i) {
    const Vec2 q = usa.dataset->box().SamplePoint(rng);
    const TransportPlan plan = transport.Prepare(q, k);
    const TransportReply reply =
        transport.Fulfill(plan, q, k, TupleFilter{});
    if (!Delivered(reply.outcome)) continue;  // typed, never silent
    const std::vector<ServerHit> truth = mono.Query(q, k);
    ++compared;
    bool same = truth.size() == reply.hits.size();
    for (size_t j = 0; same && j < truth.size(); ++j) {
      same = truth[j].tuple_id == reply.hits[j].tuple_id &&
             truth[j].distance == reply.hits[j].distance;
    }
    identical += same;
  }
  std::printf("scatter-gather vs monolithic (shard 5 hot)\n");
  std::printf("  delivered     : %d/200\n", compared);
  std::printf("  bit-identical : %d/%d\n", identical, compared);
  std::printf("  hot-lane retries: %llu (other lanes: %llu)\n",
              counter(obs::ShardMetricName("transport", 5, "retries")),
              counter(obs::ShardMetricName("transport", 0, "retries")));

  // The estimator neither knows nor cares about the topology: same trace
  // over the sharded wire as over the monolithic stack.
  CensusSampler sampler(&usa.census);
  LrClient client(&meta, {.k = k, .budget = 6000}, &transport);
  LrAggEstimator estimator(&client, &sampler, AggregateSpec::Count(),
                           {.seed = 42});
  const RunResult run = RunWithBudget(MakeHandle(&estimator), 6000);
  const double truth = usa.dataset->GroundTruthCount();
  std::printf("LR-LBS-AGG over the sharded wire\n");
  std::printf("  estimate      : %.0f  (truth %.0f, error %.1f%%)\n",
              run.final_estimate, truth,
              100.0 * RelativeError(run.final_estimate, truth));
  std::printf("  queries spent : %llu (critical-path attempts: %llu)\n",
              static_cast<unsigned long long>(run.queries),
              counter("transport.attempts"));
  return 0;
}
