#include "transport/simulated_transport.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace lbsagg {

SimulatedTransport::SimulatedTransport(const LbsServer* server,
                                       SimulatedTransportOptions options)
    : server_(server),
      options_(options),
      latency_model_(options.latency),
      fault_injector_(options.faults, options.seed),
      bucket_(options.rate_limit),
      cells_(options.registry, /*shard=*/-1, /*per_attempt=*/true),
      fulfills_counter_(
          obs::GetCounter(options.registry, "transport.fulfills")) {
  LBSAGG_CHECK(server_ != nullptr);
  LBSAGG_CHECK_GE(options_.retry.max_attempts, 1);
}

TransportPlan SimulatedTransport::Prepare(const Vec2&, int) {
  std::lock_guard<std::mutex> lock(mu_);
  TransportPlan plan;
  plan.ticket = next_ticket_++;
  plan.attempts = 0;

  double t = virtual_now_ms_;
  for (int attempt = 1;; ++attempt) {
    // One rate-limit token per interface attempt.
    const double service = bucket_.AcquireAt(t);
    if (service > t) {
      cells_.throttle_wait_ms.Observe(service - t);
      t = service;
    }
    ++plan.attempts;

    const AttemptFault fault = fault_injector_.Draw(plan.ticket, attempt);
    double attempt_ms = latency_model_.Sample(options_.seed, plan.ticket,
                                              attempt);
    if (fault.kind == AttemptFault::Kind::kTimeout) {
      attempt_ms = options_.faults.timeout_ms;
    }
    if (options_.tracer != nullptr) {
      // Attempt endpoints are known exactly in virtual time (1 ms = 1000 ts
      // units): the span starts when the rate limiter releases the attempt.
      options_.tracer->AddComplete("transport.attempt", "transport",
                                   t * 1000.0, attempt_ms * 1000.0);
    }
    t += attempt_ms;

    if (fault.kind == AttemptFault::Kind::kNone) {
      plan.outcome = TransportOutcome::kOk;
      break;
    }
    if (fault.kind == AttemptFault::Kind::kTruncated) {
      // Degraded success: the page arrived minus a suffix. Not retried —
      // the client cannot tell a truncated page from a sparse area.
      plan.outcome = TransportOutcome::kTruncated;
      plan.truncate_u = fault.truncate_u;
      break;
    }

    // Retryable failure.
    if (fault.kind == AttemptFault::Kind::kTimeout) {
      cells_.attempt_timeouts.Add(1);
    } else {
      cells_.attempt_transient_errors.Add(1);
    }
    if (retries_spent_ >= options_.retry.retry_budget) {
      plan.outcome = TransportOutcome::kFatal;  // fail fast: budget spent
      break;
    }
    if (attempt >= options_.retry.max_attempts) {
      plan.outcome = fault.kind == AttemptFault::Kind::kTimeout
                         ? TransportOutcome::kTimeout
                         : TransportOutcome::kTransientError;
      break;
    }
    ++retries_spent_;
    t += BackoffMs(options_.retry, options_.seed, plan.ticket, attempt);
  }

  if (options_.tracer != nullptr) {
    options_.tracer->AddComplete("transport.request", "transport",
                                 virtual_now_ms_ * 1000.0,
                                 (t - virtual_now_ms_) * 1000.0);
  }
  plan.latency_ms = t - virtual_now_ms_;
  virtual_now_ms_ = t;  // sequential-client clock: next query departs now

  cells_.RecordRequest(plan.outcome, plan.attempts, plan.latency_ms);
  return plan;
}

TransportReply SimulatedTransport::Fulfill(const TransportPlan& plan,
                                           const Vec2& q, int k,
                                           const TupleFilter& filter) const {
  fulfills_counter_.Add(1);
  TransportReply reply;
  reply.outcome = plan.outcome;
  reply.attempts = plan.attempts;
  reply.latency_ms = plan.latency_ms;
  if (Delivered(plan.outcome)) {
    reply.hits = server_->Query(q, k, filter);
    if (plan.outcome == TransportOutcome::kTruncated && !reply.hits.empty()) {
      // Keep a strict prefix: at least 0, at most size-1 hits survive.
      const size_t size = reply.hits.size();
      const size_t keep = std::min(
          size - 1,
          static_cast<size_t>(plan.truncate_u * static_cast<double>(size)));
      reply.hits.resize(keep);
    }
  }
  return reply;
}

double SimulatedTransport::VirtualNowMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return virtual_now_ms_;
}

}  // namespace lbsagg
