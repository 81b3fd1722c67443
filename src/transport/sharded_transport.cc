#include "transport/sharded_transport.h"

#include <algorithm>
#include <utility>

#include "geometry/loc_key.h"  // SplitMix64
#include "util/check.h"

namespace lbsagg {

namespace {

// Severity used to pick the combined outcome when lanes disagree; the
// lowest-shard-id *undelivered* lane wins outright, so this only orders
// delivered outcomes (kTruncated over kOk).
bool WorseThan(TransportOutcome a, TransportOutcome b) {
  return static_cast<int>(a) > static_cast<int>(b);
}

}  // namespace

ShardedTransport::ShardedTransport(const ShardedLbsServer* server,
                                   ShardedTransportOptions options)
    : server_(server),
      options_(std::move(options)),
      latency_model_(options_.latency),
      cells_(options_.registry, /*shard=*/-1, /*per_attempt=*/false),
      fulfills_counter_(
          obs::GetCounter(options_.registry, "transport.fulfills")) {
  LBSAGG_CHECK(server_ != nullptr);
  LBSAGG_CHECK_GE(options_.retry.max_attempts, 1);
  const int shards = server_->num_shards();
  lanes_.reserve(shards);
  for (int s = 0; s < shards; ++s) {
    const FaultOptions& faults =
        static_cast<size_t>(s) < options_.shard_faults.size()
            ? options_.shard_faults[s]
            : options_.faults;
    const uint64_t lane_seed =
        SplitMix64(options_.seed ^
                   (0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(s) + 1)));
    lanes_.emplace_back(options_.rate_limit, faults, lane_seed,
                        options_.registry, s);
  }
}

double ShardedTransport::PrepareLane(Lane& lane, uint64_t ticket,
                                     double depart_ms, LanePlan* plan,
                                     int* attempts, double* dispatch_ms) {
  *attempts = 0;
  *dispatch_ms = depart_ms;
  double t = depart_ms;
  for (int attempt = 1;; ++attempt) {
    const double service = lane.bucket.AcquireAt(t);
    if (service > t) {
      lane.cells.throttle_wait_ms.Observe(service - t);
      t = service;
    }
    *dispatch_ms = t;
    ++*attempts;

    const AttemptFault fault = lane.faults.Draw(ticket, attempt);
    double attempt_ms = latency_model_.Sample(lane.seed, ticket, attempt);
    if (fault.kind == AttemptFault::Kind::kTimeout) {
      attempt_ms = lane.faults.options().timeout_ms;
    }
    if (options_.tracer != nullptr) {
      options_.tracer->AddComplete("transport.attempt", "transport",
                                   t * 1000.0, attempt_ms * 1000.0);
    }
    t += attempt_ms;

    if (fault.kind == AttemptFault::Kind::kNone) {
      plan->outcome = TransportOutcome::kOk;
      break;
    }
    if (fault.kind == AttemptFault::Kind::kTruncated) {
      plan->outcome = TransportOutcome::kTruncated;
      plan->truncate_u = fault.truncate_u;
      break;
    }

    if (fault.kind == AttemptFault::Kind::kTimeout) {
      lane.cells.attempt_timeouts.Add(1);
    } else {
      lane.cells.attempt_transient_errors.Add(1);
    }
    if (lane.retries_spent >= options_.retry.retry_budget) {
      plan->outcome = TransportOutcome::kFatal;
      break;
    }
    if (attempt >= options_.retry.max_attempts) {
      plan->outcome = fault.kind == AttemptFault::Kind::kTimeout
                          ? TransportOutcome::kTimeout
                          : TransportOutcome::kTransientError;
      break;
    }
    ++lane.retries_spent;
    t += BackoffMs(options_.retry, lane.seed, ticket, attempt);
  }

  if (options_.tracer != nullptr) {
    options_.tracer->AddComplete("transport.shard.request", "transport",
                                 depart_ms * 1000.0,
                                 (t - depart_ms) * 1000.0);
  }
  lane.cells.RecordRequest(plan->outcome, *attempts, t - depart_ms);
  return t;
}

TransportPlan ShardedTransport::Prepare(const Vec2& q, int) {
  const std::vector<int> targets = server_->ReachableShards(q);

  std::lock_guard<std::mutex> lock(mu_);
  TransportPlan plan;
  plan.ticket = next_ticket_++;

  const double depart = virtual_now_ms_;
  double done = depart;
  double dispatch = depart;
  int max_attempts = 0;
  std::vector<LanePlan> fanout;
  fanout.reserve(targets.size());
  TransportOutcome first_failure = TransportOutcome::kOk;
  TransportOutcome worst_delivered = TransportOutcome::kOk;
  for (int s : targets) {
    LanePlan lane_plan;
    lane_plan.shard = s;
    int attempts = 0;
    double lane_dispatch = depart;
    done = std::max(
        done, PrepareLane(lanes_[s], plan.ticket, depart, &lane_plan,
                          &attempts, &lane_dispatch));
    dispatch = std::max(dispatch, lane_dispatch);
    max_attempts = std::max(max_attempts, attempts);
    if (!Delivered(lane_plan.outcome) &&
        first_failure == TransportOutcome::kOk) {
      first_failure = lane_plan.outcome;
    }
    if (Delivered(lane_plan.outcome) &&
        WorseThan(lane_plan.outcome, worst_delivered)) {
      worst_delivered = lane_plan.outcome;
    }
    fanout.push_back(lane_plan);
  }

  // A query beyond every shard's coverage never leaves the client's NIC in
  // this simulation, but it is still one interface round against the §2.1
  // budget — the monolithic server charges the same query one attempt too.
  plan.attempts = std::max(1, max_attempts);
  plan.outcome = first_failure != TransportOutcome::kOk ? first_failure
                                                        : worst_delivered;
  plan.latency_ms = done - depart;
  // Sequential client: the next query departs when this one completes.
  // Pipelined client: it departs once the limiters grant this one's final
  // attempt — completion latency overlaps the next query's flight.
  virtual_now_ms_ = options_.pipelined_clock ? dispatch : done;

  if (options_.tracer != nullptr) {
    options_.tracer->AddComplete("transport.request", "transport",
                                 depart * 1000.0, plan.latency_ms * 1000.0);
  }
  cells_.RecordRequest(plan.outcome, plan.attempts, plan.latency_ms);

  pending_.emplace(plan.ticket, std::move(fanout));
  return plan;
}

TransportReply ShardedTransport::Fulfill(const TransportPlan& plan,
                                         const Vec2& q, int k,
                                         const TupleFilter& filter) const {
  fulfills_counter_.Add(1);
  std::vector<LanePlan> fanout;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(plan.ticket);
    LBSAGG_CHECK(it != pending_.end())
        << "plan fulfilled twice or never prepared";
    fanout = std::move(it->second);
    pending_.erase(it);
  }

  TransportReply reply;
  reply.outcome = plan.outcome;
  reply.attempts = plan.attempts;
  reply.latency_ms = plan.latency_ms;
  if (!Delivered(plan.outcome)) return reply;  // typed failure, empty page

  std::vector<std::vector<ServerHit>> pages;
  pages.reserve(fanout.size());
  for (const LanePlan& lane_plan : fanout) {
    std::vector<ServerHit> page =
        server_->QueryShard(lane_plan.shard, q, k, filter);
    if (lane_plan.outcome == TransportOutcome::kTruncated && !page.empty()) {
      // Strict prefix of this shard's page, same rule as the monolithic
      // SimulatedTransport: at least 0, at most size-1 hits survive.
      const size_t size = page.size();
      const size_t keep = std::min(
          size - 1, static_cast<size_t>(lane_plan.truncate_u *
                                        static_cast<double>(size)));
      page.resize(keep);
    }
    pages.push_back(std::move(page));
  }
  reply.hits = server_->MergeShardPages(q, pages, k);
  return reply;
}

double ShardedTransport::VirtualNowMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return virtual_now_ms_;
}

}  // namespace lbsagg
