#ifndef E2EBENCH_TIMED_H_
#define E2EBENCH_TIMED_H_

// Timing decorators for the library's virtual seams. Each forwards every
// call unchanged to the wrapped object and records one span around it, so a
// traced run issues exactly the queries, rng draws and WAL bytes of an
// untraced one. They are installed only in the traced run.

#include <string>
#include <string_view>

#include "core/sampler.h"
#include "engine/cell_resolver.h"
#include "engine/evidence_store.h"
#include "spans.h"
#include "transport/transport.h"

namespace e2ebench {

class TimedSampler final : public lbsagg::QuerySampler {
 public:
  explicit TimedSampler(const lbsagg::QuerySampler* inner) : inner_(inner) {}

  lbsagg::Vec2 Sample(lbsagg::Rng& rng) const override {
    Span span(Layer::kSampler);
    return inner_->Sample(rng);
  }
  double RegionProbability(const lbsagg::TopkRegion& region) const override {
    Span span(Layer::kSampler);
    return inner_->RegionProbability(region);
  }
  double RegionProbability(const lbsagg::ConvexPolygon& polygon) const override {
    Span span(Layer::kSampler);
    return inner_->RegionProbability(polygon);
  }
  lbsagg::Vec2 SampleFromRegion(const lbsagg::TopkRegion& region,
                                lbsagg::Rng& rng) const override {
    Span span(Layer::kSampler);
    return inner_->SampleFromRegion(region, rng);
  }
  const lbsagg::Box& box() const override { return inner_->box(); }

 private:
  const lbsagg::QuerySampler* inner_;
};

class TimedTransport final : public lbsagg::LbsTransport {
 public:
  explicit TimedTransport(lbsagg::LbsTransport* inner) : inner_(inner) {}

  lbsagg::TransportPlan Prepare(const lbsagg::Vec2& q, int k) override {
    Span span(Layer::kWirePrepare);
    return inner_->Prepare(q, k);
  }
  lbsagg::TransportReply Fulfill(const lbsagg::TransportPlan& plan,
                                 const lbsagg::Vec2& q, int k,
                                 const lbsagg::TupleFilter& filter) const override {
    Span span(Layer::kWire);
    return inner_->Fulfill(plan, q, k, filter);
  }

 private:
  lbsagg::LbsTransport* inner_;
};

class TimedResolver final : public lbsagg::engine::CellResolver {
 public:
  explicit TimedResolver(lbsagg::engine::CellResolver* inner) : inner_(inner) {}

  void ResolveRound(const lbsagg::engine::EvidenceDemand& demand,
                    lbsagg::engine::EvidenceStore* store) override {
    Span span(Layer::kResolver);
    inner_->ResolveRound(demand, store);
  }
  const lbsagg::LbsClient& client() const override { return inner_->client(); }
  uint64_t queries_used() const override { return inner_->queries_used(); }
  const char* name() const override { return inner_->name(); }
  std::string diagnostics_json() const override {
    return inner_->diagnostics_json();
  }
  void SaveState(std::string* out) const override { inner_->SaveState(out); }
  bool RestoreState(std::string_view blob) override {
    return inner_->RestoreState(blob);
  }

 private:
  lbsagg::engine::CellResolver* inner_;
};

// Sits between the evidence store and a DurableEvidenceLog (attach it with
// EstimationEngine::AttachSink after the log attached itself).
class TimedSink final : public lbsagg::engine::EvidenceSink {
 public:
  explicit TimedSink(lbsagg::engine::EvidenceSink* inner) : inner_(inner) {}

  void OnBeginRound(uint64_t round, const lbsagg::Vec2& point) override {
    Span span(Layer::kWalAppend);
    inner_->OnBeginRound(round, point);
  }
  void OnAppend(uint64_t round,
                const lbsagg::engine::Observation& observation) override {
    Span span(Layer::kWalAppend);
    inner_->OnAppend(round, observation);
  }
  void OnEndRound(const lbsagg::engine::EvidenceRound& round) override {
    Span span(Layer::kWalAppend);
    inner_->OnEndRound(round);
  }

 private:
  lbsagg::engine::EvidenceSink* inner_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_TIMED_H_
