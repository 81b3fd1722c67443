// service_mix: an EstimationService over USA at 10^6 POIs, fed by an
// open-loop Poisson generator at one fixed absolute rate.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/aggregate.h"
#include "core/sampler.h"
#include "service/service.h"
#include "timed.h"
#include "transport/simulated_transport.h"
#include "util/rng.h"
#include "workload/scenarios.h"

namespace e2ebench {
namespace {

using namespace lbsagg;
using service::SessionId;
using service::SessionSpec;


// Offered load in sessions per second, frozen: set once at about 28% of the
// capacity measured with every session submitted at once (about 215
// sessions/s on a 4-core x86-64 VM, Release) and never re-derived, so a
// change in capacity shows as a change in latency. A low load keeps the
// queueing delay, which amplifies any slowdown of a shared host, small.
constexpr double kArrivalsPerSecond = 60.0;
// Sessions per second of --seconds: the run's fixed amount of work.
constexpr double kSessionsPerSecond = kArrivalsPerSecond;
// Fresh sessions split evenly between a clean wire and one with transient
// faults under the default retry policy.
constexpr double kFaultRate = 0.02;
constexpr size_t kCleanBackend = 0;
constexpr size_t kFaultyBackend = 1;

struct Planned {
  double arrival_s = 0;  // scheduled offset from the phase start
  SessionSpec spec;
  int repeat_of = -1;    // index of the session whose spec this repeats
};

struct Observed {
  double submit_s = -1;
  double start_s = -1;
  double finish_s = -1;
  service::SessionState state = service::SessionState::kQueued;
  uint64_t queries = 0;
  std::vector<double> estimates;
};

class ServiceMix final : public Workload {
 public:
  void Setup(bool stats, double* scenario_s, double* server_s) override {
    world_.Rebuild(
        [] {
          UsaOptions options;
          options.num_pois = kTuples;
          return BuildUsaScenario(options);
        },
        stats, scenario_s, server_s);
    census_ = std::make_unique<CensusSampler>(&world_.scenario().census);
  }

  void WarmUp(const RunOptions& options) override {
    RunOptions warm = options;
    warm.seed = DeriveSeed(options.seed, ~0ull);
    warm.seconds = 1;
    (void)Serve(warm, false);
  }

  PhaseResult Run(const RunOptions& options, bool traced) override {
    return Serve(options, traced);
  }

 private:
  // The mix is stratified so that every seed runs the same composition:
  // every 4th session repeats an earlier clean-wire session, and fresh
  // sessions cycle through family x aggregate x wire. Seeds, the sessions
  // repeated and the arrival times are drawn from --seed.
  std::vector<Planned> Plan(const RunOptions& options) const {
    const size_t n = static_cast<size_t>(
        std::max(20.0, std::round(options.seconds * kSessionsPerSecond)));
    Rng rng(DeriveSeed(options.seed, 7));
    const UsaColumns& cols = world_.scenario().columns;
    const ReturnedTuplePredicate restaurant =
        ColumnEquals(cols.category, "restaurant");
    const AggregateSpec aggregates[] = {
        AggregateSpec::Count(),
        AggregateSpec::Sum(cols.enrollment, "SUM(enrollment)"),
        AggregateSpec::AvgWhere(cols.rating, restaurant, "AVG(rating|restaurant)")};
    static const char* kTenants[] = {"tenant-a", "tenant-b", "tenant-c"};
    std::vector<Planned> plan(n);
    std::vector<size_t> repeatable;
    size_t fresh = 0;
    double t = 0;
    for (size_t i = 0; i < n; ++i) {
      t += -std::log(1.0 - rng.Uniform01()) / kArrivalsPerSecond;
      Planned& p = plan[i];
      p.arrival_s = t;
      if (i % 4 == 3) {
        p.repeat_of = static_cast<int>(
            repeatable[rng.UniformInt(repeatable.size())]);
        p.spec = plan[p.repeat_of].spec;
      } else {
        SessionSpec& s = p.spec;
        s.family = static_cast<service::EstimatorFamily>(fresh % 3);
        s.aggregates = {aggregates[fresh / 3 % 3]};
        // Repeats draw only from clean-wire sessions: dedup promises
        // solo-identical estimates on a clean wire, and a faulty one
        // bypasses the cache for every retried page.
        s.backend = fresh / 9 % 2 == 0 ? kCleanBackend : kFaultyBackend;
        if (s.backend == kCleanBackend) repeatable.push_back(i);
        ++fresh;
        s.k = kK;
        s.seed = rng.Next();
        s.sampler = census_.get();
        s.lnr.cell.search.delta_fraction = 1e-6;
        s.lnr.cell.search.delta_prime_fraction = 1e-4;
        switch (s.family) {
          case service::EstimatorFamily::kLr: s.budget = 300; break;
          case service::EstimatorFamily::kLnr: s.budget = 600; break;
          case service::EstimatorFamily::kNno: s.budget = 200; break;
        }
      }
      p.spec.principal = kTenants[i % 3];
    }
    return plan;
  }

  PhaseResult Serve(const RunOptions& options, bool traced) {
    const std::vector<Planned> plan = Plan(options);
    const size_t n = plan.size();
    SimulatedTransportOptions clean_options;
    clean_options.seed = DeriveSeed(options.seed, 11);
    SimulatedTransportOptions faulty_options = clean_options;
    faulty_options.faults.transient_error_rate = kFaultRate;
    SimulatedTransport clean(world_.server(), clean_options);
    SimulatedTransport faulty(world_.server(), faulty_options);
    CountingTransport counted_clean(&clean);
    CountingTransport counted_faulty(&faulty);
    TimedSampler timed_sampler(census_.get());

    service::ServiceOptions service_options;
    service_options.admission.policy = service::AdmissionPolicy::kFairShare;
    service_options.admission.queue_capacity = n + 1;
    service_options.admission.max_active = 8;
    service_options.dispatcher_workers = 2;
    service_options.slice_rounds = 1;
    std::vector<service::ServiceBackend> backends(2);
    backends[kCleanBackend] = {
        .meta = world_.server(),
        .wire = traced ? static_cast<LbsTransport*>(&counted_clean) : &clean};
    backends[kFaultyBackend] = {
        .meta = world_.server(),
        .wire = traced ? static_cast<LbsTransport*>(&counted_faulty) : &faulty};
    service::EstimationService svc(std::move(backends), service_options);

    std::vector<Observed> seen(n);
    std::vector<size_t> index_of_id;  // SessionId -> plan index
    std::vector<SessionId> finished;
    double start = 0;
    svc.triggers().Add(service::SessionEventKind::kStarted,
                       [&](const service::SessionEvent& e) {
                         seen[index_of_id[e.id]].start_s = WallSeconds() - start;
                       });
    svc.triggers().Add(service::SessionEventKind::kFinished,
                       [&](const service::SessionEvent& e) {
                         Observed& o = seen[index_of_id[e.id]];
                         o.finish_s = WallSeconds() - start;
                         const service::SessionStatus status = svc.Poll(e.id);
                         o.state = status.state;
                         o.queries = status.queries_used;
                         o.estimates = status.estimates;
                         finished.push_back(e.id);
                       });
    SpanRecorder* recorder = SpanRecorder::active();
    if (recorder != nullptr) {
      svc.triggers().Add(service::SessionEventKind::kProgress,
                         [&](const service::SessionEvent& e) {
                           recorder->SetId(e.id);
                         });
    }

    std::vector<double> slice_us, late_ms;
    double active_sum = 0;
    double idle_s = 0;
    size_t next = 0;
    size_t done = 0;
    // The scheduler thread moves to the next CPU every eighth of the
    // sessions (RotateCpu); dispatcher workers go where the kernel puts them.
    const size_t segment = std::max<size_t>(1, n / 8);
    world_.MarkKnn();
    const double cpu0 = CpuSeconds();
    start = WallSeconds();
    while (done < n) {
      const double now = WallSeconds() - start;
      while (next < n && plan[next].arrival_s <= now) {
        if (next % segment == 0) RotateCpu(next / segment);
        seen[next].submit_s = WallSeconds() - start;
        late_ms.push_back((seen[next].submit_s - plan[next].arrival_s) * 1e3);
        SessionSpec spec = plan[next].spec;
        if (traced) spec.sampler = &timed_sampler;
        SessionId id;
        {
          Span span(Layer::kSubmit);
          id = svc.Submit(std::move(spec));
        }
        if (index_of_id.size() <= id) index_of_id.resize(id + 1, n);
        index_of_id[id] = next;
        // A shed session is terminal at once and fires no kFinished.
        if (svc.Poll(id).state == service::SessionState::kRejected) {
          seen[next].state = service::SessionState::kRejected;
          ++done;
        }
        ++next;
      }
      const double t0 = WallSeconds();
      bool ran;
      {
        Span span(Layer::kSlice);
        ran = svc.RunSlice();
      }
      if (ran) {
        slice_us.push_back((WallSeconds() - t0) * 1e6);
        active_sum += static_cast<double>(svc.active());
      }
      done += finished.size();
      for (const SessionId id : finished) (void)svc.Forget(id);
      finished.clear();
      if (!ran && next < n) {
        const double idle0 = WallSeconds();
        std::this_thread::sleep_for(std::chrono::duration<double>(
            plan[next].arrival_s - (idle0 - start)));
        idle_s += WallSeconds() - idle0;
      }
    }
    PhaseResult result;
    result.wall_s = WallSeconds() - start;
    const double cpu_s = CpuSeconds() - cpu0;
    RestoreCpus();
    result.idle_s = idle_s;
    result.rounds = slice_us.size();

    // Checks: every session completes; a repeat reproduces its original's
    // estimates bit for bit (the dedup contract).
    uint64_t queries = 0;
    std::vector<double> session_ms, wait_ms;
    for (size_t i = 0; i < n; ++i) {
      const Observed& o = seen[i];
      queries += o.queries;
      session_ms.push_back((o.finish_s - plan[i].arrival_s) * 1e3);
      wait_ms.push_back((o.start_s - o.submit_s) * 1e3);
      ++result.attempted;
      bool ok = o.state == service::SessionState::kCompleted;
      if (ok && plan[i].repeat_of >= 0) {
        const Observed& first = seen[plan[i].repeat_of];
        ok = o.estimates.size() == first.estimates.size() &&
             std::memcmp(o.estimates.data(), first.estimates.data(),
                         o.estimates.size() * sizeof(double)) == 0;
      }
      if (!ok) {
        ++result.failed;
        std::printf("check failed: session %zu state %s%s\n", i,
                    service::SessionStateName(o.state),
                    plan[i].repeat_of >= 0 ? " (repeat)" : "");
      }
    }

    result.queries_per_cpu_s = static_cast<double>(queries) / cpu_s;
    auto& m = result.metrics;
    m["queries_per_cpu_s"] = result.queries_per_cpu_s;
    m["sessions_per_cpu_s"] = static_cast<double>(n) / cpu_s;
    m["round_us_p50"] = Percentile(&slice_us, 0.50);
    m["round_us_p90"] = Percentile(&slice_us, 0.90);
    std::printf("samples: %zu slices (%zu beyond p99), %zu sessions (%zu beyond "
                "p90)\n",
                slice_us.size(), Beyond(slice_us.size(), 0.99), n,
                Beyond(n, 0.90));

    service::DedupStats dedup;
    for (size_t b = 0; b < svc.num_backends(); ++b) {
      dedup.lookups += svc.dedup(b)->Stats().lookups;
      dedup.hits += svc.dedup(b)->Stats().hits;
    }
    auto& l = result.layer;
    l["service.session_ms_p50"] = Percentile(&session_ms, 0.50);
    l["service.session_ms_p90"] = Percentile(&session_ms, 0.90);
    l["resolver.queries_per_round"] =
        static_cast<double>(queries) / std::max<size_t>(1, slice_us.size());
    l["service.slice_us_p50"] = m["round_us_p50"];
    l["service.slice_us_p99"] = Percentile(&slice_us, 0.99);
    l["service.queue_wait_ms_p50"] = Percentile(&wait_ms, 0.50);
    l["service.queue_wait_ms_p90"] = Percentile(&wait_ms, 0.90);
    l["service.active_mean"] = active_sum / std::max<size_t>(1, slice_us.size());
    l["dedup.hit_ratio"] =
        dedup.lookups > 0 ? static_cast<double>(dedup.hits) / dedup.lookups : 0;
    l["generator.late_ms_p99"] = Percentile(&late_ms, 0.99);
    l["wire.attempts_per_query"] =
        CountingTransport::AttemptsPerQuery({&counted_clean, &counted_faulty});
    l["spatial.nodes_per_knn"] = world_.NodesPerKnn();
    return result;
  }

  // Counts the attempts the retry policy spent per backend query.
  class CountingTransport final : public LbsTransport {
   public:
    explicit CountingTransport(LbsTransport* inner) : timed_(inner) {}
    TransportPlan Prepare(const Vec2& q, int k) override {
      TransportPlan plan = timed_.Prepare(q, k);
      queries_.fetch_add(1, std::memory_order_relaxed);
      attempts_.fetch_add(static_cast<uint64_t>(plan.attempts),
                          std::memory_order_relaxed);
      return plan;
    }
    TransportReply Fulfill(const TransportPlan& plan, const Vec2& q, int k,
                           const TupleFilter& filter) const override {
      return timed_.Fulfill(plan, q, k, filter);
    }
    static double AttemptsPerQuery(
        std::initializer_list<const CountingTransport*> wires) {
      uint64_t queries = 0, attempts = 0;
      for (const CountingTransport* wire : wires) {
        queries += wire->queries_.load(std::memory_order_relaxed);
        attempts += wire->attempts_.load(std::memory_order_relaxed);
      }
      return queries > 0 ? static_cast<double>(attempts) / queries : 0;
    }

   private:
    TimedTransport timed_;
    std::atomic<uint64_t> queries_{0};
    std::atomic<uint64_t> attempts_{0};
  };

  World<UsaScenario> world_;
  std::unique_ptr<CensusSampler> census_;
};

}  // namespace

std::unique_ptr<Workload> NewServiceMix() {
  return std::make_unique<ServiceMix>();
}

}  // namespace e2ebench
