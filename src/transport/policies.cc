#include "transport/policies.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/check.h"

namespace lbsagg {

namespace {
// Hash salts keeping the independent draw families independent.
constexpr uint64_t kSaltLatency = 0x1a7e9c5;
constexpr uint64_t kSaltLatencyPhase = 0x1a7e9c6;
constexpr uint64_t kSaltFault = 0xfa017;
constexpr uint64_t kSaltTruncate = 0x7a11;
constexpr uint64_t kSaltJitter = 0x317732;
}  // namespace

double LatencyModel::Sample(uint64_t seed, uint64_t ticket,
                            int attempt) const {
  double ms = options_.fixed_ms;
  if (options_.kind == LatencyOptions::Kind::kLognormal) {
    // Box–Muller from two hashed uniforms; u1 is kept away from 0.
    const double u1 =
        std::max(TicketUniform01(seed, ticket, attempt, kSaltLatency), 1e-12);
    const double u2 = TicketUniform01(seed, ticket, attempt, kSaltLatencyPhase);
    const double normal =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
    ms = std::exp(std::log(options_.lognormal_median_ms) +
                  options_.lognormal_sigma * normal);
  }
  return std::max(ms, options_.min_ms);
}

TokenBucket::TokenBucket(TokenBucketOptions options)
    : options_(options), tokens_(options.capacity) {
  if (enabled()) LBSAGG_CHECK_GT(options_.refill_per_sec, 0.0);
}

double TokenBucket::AcquireAt(double now_ms) {
  if (!enabled()) return now_ms;
  const double refill_per_ms = options_.refill_per_sec / 1000.0;
  // Queue behind earlier acquirers; refill for the elapsed virtual time.
  const double at = std::max(now_ms, last_ms_);
  tokens_ = std::min(options_.capacity,
                     tokens_ + (at - last_ms_) * refill_per_ms);
  if (tokens_ >= 1.0) {
    tokens_ -= 1.0;
    last_ms_ = at;
    return at;
  }
  const double wait = (1.0 - tokens_) / refill_per_ms;
  tokens_ = 0.0;
  last_ms_ = at + wait;
  return last_ms_;
}

FaultInjector::FaultInjector(FaultOptions options, uint64_t seed)
    : options_(options), seed_(seed) {
  LBSAGG_CHECK_GE(options.transient_error_rate, 0.0);
  LBSAGG_CHECK_GE(options.timeout_rate, 0.0);
  LBSAGG_CHECK_GE(options.truncate_rate, 0.0);
  LBSAGG_CHECK_LE(options.transient_error_rate + options.timeout_rate +
                      options.truncate_rate,
                  1.0);
}

AttemptFault FaultInjector::Draw(uint64_t ticket, int attempt) const {
  const double u = TicketUniform01(seed_, ticket, attempt, kSaltFault);
  AttemptFault fault;
  if (u < options_.timeout_rate) {
    fault.kind = AttemptFault::Kind::kTimeout;
  } else if (u < options_.timeout_rate + options_.transient_error_rate) {
    fault.kind = AttemptFault::Kind::kTransientError;
  } else if (u < options_.timeout_rate + options_.transient_error_rate +
                     options_.truncate_rate) {
    fault.kind = AttemptFault::Kind::kTruncated;
    fault.truncate_u = TicketUniform01(seed_, ticket, attempt, kSaltTruncate);
  }
  return fault;
}

double BackoffMs(const RetryOptions& options, uint64_t seed, uint64_t ticket,
                 int attempt) {
  const double uncapped =
      options.base_backoff_ms * std::ldexp(1.0, std::min(attempt - 1, 30));
  const double capped = std::min(uncapped, options.max_backoff_ms);
  const double u = TicketUniform01(seed, ticket, attempt, kSaltJitter);
  const double factor = 1.0 + options.jitter * (2.0 * u - 1.0);
  return capped * factor;
}

TransportCells::TransportCells(obs::MetricsRegistry* registry, int shard,
                               bool per_attempt) {
  const auto name = [shard](const std::string& metric) {
    return shard < 0 ? "transport." + metric
                     : obs::ShardMetricName("transport", shard, metric);
  };
  std::vector<double> attempt_bounds;
  for (int a = 1; a <= 16; ++a) attempt_bounds.push_back(a);
  requests = obs::GetCounter(registry, name("requests"));
  attempts = obs::GetCounter(registry, name("attempts"));
  retries = obs::GetCounter(registry, name("retries"));
  for (int i = 0; i < kNumTransportOutcomes; ++i) {
    const auto outcome = static_cast<TransportOutcome>(i);
    outcomes[i] = obs::GetCounter(
        registry,
        name(std::string("outcome.") + TransportOutcomeName(outcome)));
  }
  latency_ms = obs::GetHistogram(registry, name("latency_ms"),
                                 obs::SmallCountBounds(1 << 16));
  attempts_per_request = obs::GetHistogram(
      registry, name("attempts_per_request"), std::move(attempt_bounds));
  if (!per_attempt) return;
  attempt_transient_errors =
      obs::GetCounter(registry, name("attempt_transient_errors"));
  attempt_timeouts = obs::GetCounter(registry, name("attempt_timeouts"));
  throttle_wait_ms = obs::GetHistogram(registry, name("throttle_wait_ms"),
                                       obs::SmallCountBounds(1 << 16));
}

void TransportCells::RecordRequest(TransportOutcome outcome, int num_attempts,
                                   double latency) const {
  requests.Add(1);
  attempts.Add(static_cast<uint64_t>(num_attempts));
  if (num_attempts > 1) retries.Add(static_cast<uint64_t>(num_attempts - 1));
  outcomes[static_cast<int>(outcome)].Add(1);
  latency_ms.Observe(latency);
  attempts_per_request.Observe(num_attempts);
}

}  // namespace lbsagg
