#ifndef LBSAGG_TRANSPORT_SHARDED_TRANSPORT_H_
#define LBSAGG_TRANSPORT_SHARDED_TRANSPORT_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "lbs/sharded_server.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "transport/policies.h"
#include "transport/transport.h"

namespace lbsagg {

struct ShardedTransportOptions {
  LatencyOptions latency;

  // Every shard lane gets its *own* token bucket with these parameters —
  // the "one service, many regions" quota model, where each region meters
  // its own sub-requests. capacity 0 disables rate limiting.
  TokenBucketOptions rate_limit;

  // Default per-lane fault profile; `shard_faults[s]` (when s is in range)
  // overrides it for shard s — how tests force a single shard hot.
  FaultOptions faults;
  std::vector<FaultOptions> shard_faults;

  // Per-lane retry policy; retry_budget is also per lane.
  RetryOptions retry;

  // Virtual-clock model. Default (false) mirrors SimulatedTransport's
  // sequential client: the next logical query departs when the previous one
  // *completes*, so end-to-end latency bounds throughput at every shard
  // count. When true the clock models a pipelined (open-loop) client that
  // keeps every lane's queue full: the next query departs as soon as the
  // rate limiters grant the previous one's final attempt, so sustained
  // throughput is set by the per-lane quotas — the regime where
  // scatter-gather scales with shard count (bench/fig18_sharded.cc).
  // Per-query latency_ms is unchanged; only inter-query spacing differs.
  bool pipelined_clock = false;

  uint64_t seed = 0x5eed;

  // Metric plane: the client-facing transport.* cells (the same names
  // SimulatedTransport records) plus one transport.shardNN.* set per lane
  // (TransportCells). Null lands on obs::MetricsRegistry::Default().
  obs::MetricsRegistry* registry = nullptr;

  // When set, each logical query emits one "transport.request" span
  // wrapping per-lane "transport.shard.request" spans and their
  // "transport.attempt" children, stamped with virtual-time endpoints.
  obs::Tracer* tracer = nullptr;
};

// The scatter-gather wire over a ShardedLbsServer: one public kNN endpoint
// backed by N per-shard lanes, each lane owning its own token bucket,
// seeded fault injector, and retry budget (seeds are mixed per shard, so a
// lane's fault stream is independent of its neighbors').
//
// Prepare() is the stateful scatter: it picks the reachable shards for the
// query (pure geometry — ShardedLbsServer::ReachableShards), then runs the
// SimulatedTransport policy pipeline on every targeted lane, all departing
// at the shared virtual now. Sub-requests travel in parallel, so the
// combined plan charges the *critical path*: attempts = max over lanes
// (the §2.1 cost of one logical interface round, identical across shard
// counts when no lane faults), latency = the slowest lane's completion.
// The lane cells (transport.shardNN.*) keep the true per-lane accounting;
// the fan-out of a query is the sum of their `requests`. Determinism is
// inherited from the PR-3 contract: lanes are processed in ascending shard
// order inside sequential Prepare() calls, and every draw is a pure
// function of (lane seed, ticket, attempt).
//
// Fulfill() is the pure gather: delivered lanes answer their shard page
// (per-lane truncation keeps a strict prefix of that shard's page), and
// the pages fold through ShardedLbsServer::MergeShardPages — the (d2, id)
// merge — so with every lane delivered the reply is bit-identical to the
// unsharded server for any shard count, worker count, and arrival order.
//
// Partial failure is *typed*, never silent: if any targeted lane fails its
// sub-request (kTransientError / kTimeout / kFatal after the lane's
// retries), the logical query carries that lane's outcome — the
// lowest-shard-id failure, deterministically — and an empty page. A merge
// that quietly dropped one shard's candidates would be indistinguishable
// from a sparse region, which is exactly the estimator poison the
// TransportOutcome taxonomy exists to prevent.
class ShardedTransport final : public LbsTransport {
 public:
  // `server` must outlive the transport.
  ShardedTransport(const ShardedLbsServer* server,
                   ShardedTransportOptions options = {});

  // Stateful scatter; serialize calls in submission order.
  TransportPlan Prepare(const Vec2& q, int k) override;

  // Pure gather; thread-safe. Each plan may be fulfilled at most once
  // (AsyncDispatcher and the synchronous Query() path both guarantee it).
  TransportReply Fulfill(const TransportPlan& plan, const Vec2& q, int k,
                         const TupleFilter& filter) const override;

  const ShardedTransportOptions& options() const { return options_; }
  int num_shards() const { return server_->num_shards(); }

  // Current virtual time in ms (the slowest lane's frontier).
  double VirtualNowMs() const;

 private:
  struct LanePlan {
    int shard = -1;
    TransportOutcome outcome = TransportOutcome::kOk;
    double truncate_u = 0.0;
  };
  struct Lane {
    Lane(const TokenBucketOptions& bucket_options,
         const FaultOptions& fault_options, uint64_t lane_seed,
         obs::MetricsRegistry* registry, int shard)
        : bucket(bucket_options),
          faults(fault_options, lane_seed),
          seed(lane_seed),
          cells(registry, shard, /*per_attempt=*/true) {}
    TokenBucket bucket;
    FaultInjector faults;
    uint64_t seed = 0;
    uint64_t retries_spent = 0;
    TransportCells cells;  // true per-lane accounting
  };

  // Runs one lane's policy pipeline for `ticket`, departing at `depart_ms`.
  // Returns the lane completion time; fills `plan`, `attempts`, and
  // `dispatch_ms` (when the lane's final attempt entered service — the
  // pipelined clock's frontier).
  double PrepareLane(Lane& lane, uint64_t ticket, double depart_ms,
                     LanePlan* plan, int* attempts, double* dispatch_ms);

  const ShardedLbsServer* server_;
  ShardedTransportOptions options_;
  LatencyModel latency_model_;

  mutable std::mutex mu_;
  std::vector<Lane> lanes_;
  uint64_t next_ticket_ = 0;
  double virtual_now_ms_ = 0.0;
  // Client-facing total: one logical query = one request, critical-path
  // attempts, slowest-lane latency.
  TransportCells cells_;
  mutable std::unordered_map<uint64_t, std::vector<LanePlan>> pending_;
  obs::CounterRef fulfills_counter_;
};

}  // namespace lbsagg

#endif  // LBSAGG_TRANSPORT_SHARDED_TRANSPORT_H_
