// lr_census and lnr_durable: single-threaded engine runs over a fixed,
// seeded list of estimator seeds, each with a fixed query budget.

#include <sys/vfs.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/aggregate.h"
#include "core/sampler.h"
#include "engine/engine.h"
#include "engine/lnr_resolver.h"
#include "engine/log/durable_log.h"
#include "engine/lr_resolver.h"
#include "lbs/client.h"
#include "timed.h"
#include "transport/transport.h"
#include "workload/scenarios.h"

namespace e2ebench {
namespace {

using namespace lbsagg;

// A run's 95% CI counts as reached at the first round, after this many, at
// which the COUNT half-width is at most 10% of the estimate.
constexpr size_t kMinCiRounds = 30;

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Rounds of one seed, timed; the CI10 point of the COUNT aggregate.
struct SeedRun {
  uint64_t queries = 0;
  uint64_t rounds = 0;
  double wall_s = 0;
  uint64_t queries_to_ci10 = 0;
  double wall_s_to_ci10 = 0;
};

// Steps `engine` to `budget` queries, appending each Step's wall time to
// `round_us`; `after_step` runs between Steps, outside that time.
template <typename AfterStep>
SeedRun StepToBudget(engine::EstimationEngine* eng,
                     const engine::AggregateQuery* count, uint64_t budget,
                     std::vector<double>* round_us, AfterStep after_step) {
  SeedRun run;
  SpanRecorder* recorder = SpanRecorder::active();
  const double start = WallSeconds();
  while (eng->queries_used() < budget) {
    const double t0 = WallSeconds();
    {
      if (recorder != nullptr) recorder->SetId(round_us->size());
      Span span(Layer::kRound);
      eng->Step();
    }
    const double t1 = WallSeconds();
    after_step();
    round_us->push_back((t1 - t0) * 1e6);
    ++run.rounds;
    if (run.queries_to_ci10 == 0 && run.rounds >= kMinCiRounds &&
        count->ConfidenceHalfWidth() <= 0.1 * count->Estimate()) {
      run.queries_to_ci10 = eng->queries_used();
      run.wall_s_to_ci10 = t1 - start;
    }
  }
  run.queries = eng->queries_used();
  run.wall_s = WallSeconds() - start;
  return run;
}

// End-to-end metrics every engine workload reports from its seed runs; a
// seed run is one session. The CI10 sums count a seed that never reached a
// 10% CI at its full budget and wall time.
void FoldSeedRuns(const std::vector<SeedRun>& runs, std::vector<double> round_us,
                  double cpu_s, PhaseResult* result) {
  uint64_t queries = 0, to_ci = 0, rounds = 0;
  size_t reached = 0;
  double wall_to_ci = 0;
  for (const SeedRun& run : runs) {
    queries += run.queries;
    rounds += run.rounds;
    reached += run.queries_to_ci10 != 0;
    to_ci += run.queries_to_ci10 != 0 ? run.queries_to_ci10 : run.queries;
    wall_to_ci += run.queries_to_ci10 != 0 ? run.wall_s_to_ci10 : run.wall_s;
  }
  result->queries_per_cpu_s = static_cast<double>(queries) / cpu_s;
  result->rounds = rounds;
  auto& m = result->metrics;
  m["queries_per_cpu_s"] = result->queries_per_cpu_s;
  m["sessions_per_cpu_s"] = static_cast<double>(runs.size()) / cpu_s;
  m["round_us_p50"] = Percentile(&round_us, 0.50);
  m["round_us_p90"] = Percentile(&round_us, 0.90);
  result->layer["engine.round_us_p99"] = Percentile(&round_us, 0.99);
  result->layer["resolver.queries_per_round"] =
      static_cast<double>(queries) / static_cast<double>(rounds);
  result->layer["estimator.queries_to_ci10"] = static_cast<double>(to_ci);
  result->layer["estimator.wall_s_to_ci10"] = wall_to_ci;
  std::printf("samples: %zu rounds (%zu beyond p99), %zu seed runs, %zu "
              "reached a 10%% CI\n",
              round_us.size(), Beyond(round_us.size(), 0.99), runs.size(),
              reached);
}

// ---------------------------------------------------------------------------
// lr_census: LR, k=5, COUNT + SUM(enrollment) + AVG(rating | restaurant) on
// one engine, USA at 10^6 POIs, census sampler, direct wire.

class LrCensus final : public Workload {
 public:
  static constexpr uint64_t kBudget = 40000;
  static constexpr double kSeedsPerSecond = 1.0;

  void Setup(bool stats, double* scenario_s, double* server_s) override {
    world_.Rebuild(
        [] {
          UsaOptions options;
          options.num_pois = kTuples;
          return BuildUsaScenario(options);
        },
        stats, scenario_s, server_s);
  }

  void WarmUp(const RunOptions& options) override {
    std::vector<double> round_us;
    bool ok = true;
    RunSeed(DeriveSeed(options.seed, ~0ull), kBudget / 4, false, &round_us, &ok);
  }

  PhaseResult Run(const RunOptions& options, bool traced) override {
    const size_t seeds = static_cast<size_t>(
        std::max(2.0, std::round(options.seconds * kSeedsPerSecond)));
    PhaseResult result;
    std::vector<SeedRun> runs;
    std::vector<double> round_us;
    std::vector<double> counts, half_widths;
    world_.MarkKnn();
    uint64_t observations = 0;
    const double wall0 = WallSeconds();
    const double cpu0 = CpuSeconds();
    double check_cpu = 0;
    for (size_t i = 0; i < seeds; ++i) {
      bool ok = true;
      RotateCpu(i);
      Outcome o = RunSeed(DeriveSeed(options.seed, i), kBudget, traced,
                          &round_us, &ok);
      runs.push_back(o.run);
      counts.push_back(o.count);
      half_widths.push_back(o.count_half_width);
      observations += o.observations;
      check_cpu += o.check_cpu_s;
      ++result.attempted;
      if (!ok) ++result.failed;
    }
    RestoreCpus();
    const double cpu_s = CpuSeconds() - cpu0 - check_cpu;
    result.wall_s = WallSeconds() - wall0;
    FoldSeedRuns(runs, round_us, cpu_s, &result);

    // Pooled COUNT against the ground truth: within 3 pooled half-widths.
    double mean = 0, var = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
      mean += counts[i] / counts.size();
      var += half_widths[i] * half_widths[i];
    }
    const double pooled_hw = std::sqrt(var) / counts.size();
    const double truth = static_cast<double>(world_.scenario().dataset->size());
    ++result.attempted;
    if (!(std::fabs(mean - truth) <= 3 * pooled_hw)) {
      ++result.failed;
      std::printf("check failed: pooled COUNT %.1f vs truth %.0f (hw %.1f)\n",
                  mean, truth, pooled_hw);
    }
    std::printf("pooled COUNT %.1f +- %.1f (truth %.0f) over %zu seeds\n", mean,
                pooled_hw, truth, counts.size());
    result.layer["spatial.nodes_per_knn"] = world_.NodesPerKnn();
    result.layer["engine.observations_per_round"] =
        static_cast<double>(observations) / result.rounds;
    return result;
  }

 private:
  struct Outcome {
    SeedRun run;
    double count = 0;
    double count_half_width = 0;
    uint64_t observations = 0;
    double check_cpu_s = 0;
  };

  Outcome RunSeed(uint64_t seed, uint64_t budget, bool traced,
                  std::vector<double>* round_us, bool* ok) {
    DirectTransport direct(world_.server());
    TimedTransport timed_wire(&direct);
    CensusSampler census(&world_.scenario().census);
    TimedSampler timed_sampler(&census);
    LrClient client(world_.server(), {.k = kK, .budget = budget},
                    traced ? static_cast<LbsTransport*>(&timed_wire) : &direct);
    LrAggOptions options;
    options.seed = seed;
    engine::LrCellResolver resolver(
        &client,
        traced ? static_cast<const QuerySampler*>(&timed_sampler) : &census,
        options);
    TimedResolver timed_resolver(&resolver);
    engine::EstimationEngine eng(
        traced ? static_cast<engine::CellResolver*>(&timed_resolver)
               : &resolver);
    const UsaColumns& cols = world_.scenario().columns;
    const ReturnedTuplePredicate restaurant =
        ColumnEquals(cols.category, "restaurant");
    const engine::AggregateQuery* count = eng.AddAggregate(AggregateSpec::Count());
    eng.AddAggregate(AggregateSpec::Sum(cols.enrollment, "SUM(enrollment)"));
    const engine::AggregateQuery* avg = eng.AddAggregate(
        AggregateSpec::AvgWhere(cols.rating, restaurant, "AVG(rating|restaurant)"));

    Outcome o;
    o.run = StepToBudget(&eng, count, budget, round_us, [] {});
    o.count = count->Estimate();
    o.count_half_width = count->ConfidenceHalfWidth();
    o.observations = eng.evidence().num_observations();

    // AVG must equal SUM / COUNT over the same condition bit for bit: two
    // consumers registered now replay the evidence the AVG folded live.
    const double c0 = CpuSeconds();
    const engine::AggregateQuery* sum_where = eng.AddAggregate(
        AggregateSpec::SumWhere(cols.rating, restaurant, "SUM(rating|restaurant)"));
    const engine::AggregateQuery* count_where =
        eng.AddAggregate(AggregateSpec::CountWhere(restaurant, "COUNT(restaurant)"));
    const double ratio = sum_where->Estimate() / count_where->Estimate();
    if (!SameBits(avg->Estimate(), ratio) || !std::isfinite(ratio)) {
      *ok = false;
      std::printf("check failed: seed %llu AVG %.17g != SUM/COUNT %.17g\n",
                  static_cast<unsigned long long>(seed), avg->Estimate(), ratio);
    }
    o.check_cpu_s = CpuSeconds() - c0;
    return o;
  }

  World<UsaScenario> world_;
};

// ---------------------------------------------------------------------------
// lnr_durable: LNR, k=5, COUNT over China at 10^6 users, every seed run
// behind a DurableEvidenceLog (checkpoint every 64 rounds) whose directory
// is recovered and replayed after the run.

bool OnTmpfs(const std::string& dir) {
  struct statfs fs;
  return statfs(dir.c_str(), &fs) == 0 && fs.f_type == 0x01021994;  // TMPFS
}

class LnrDurable final : public Workload {
 public:
  static constexpr uint64_t kBudget = 100000;
  static constexpr double kSeedsPerSecond = 12.0;

  void Setup(bool stats, double* scenario_s, double* server_s) override {
    world_.Rebuild(
        [] {
          ChinaOptions options;
          options.num_users = kTuples;
          return BuildChinaScenario(options);
        },
        stats, scenario_s, server_s);
  }

  void WarmUp(const RunOptions& options) override {
    Prepare(options);
    std::vector<double> round_us, checkpoint_us;
    Totals totals;
    RunSeed(DeriveSeed(options.seed, ~0ull), kBudget / 4, false, &round_us,
            &checkpoint_us, &totals);
  }

  PhaseResult Run(const RunOptions& options, bool traced) override {
    Prepare(options);
    const size_t seeds = static_cast<size_t>(
        std::max(2.0, std::round(options.seconds * kSeedsPerSecond)));
    PhaseResult result;
    std::vector<SeedRun> runs;
    std::vector<double> round_us, checkpoint_us;
    Totals totals;
    world_.MarkKnn();
    const double wall0 = WallSeconds();
    const double cpu0 = CpuSeconds();
    for (size_t i = 0; i < seeds; ++i) {
      RotateCpu(i);
      const bool ok = RunSeed(DeriveSeed(options.seed, i), kBudget, traced,
                              &round_us, &checkpoint_us, &totals);
      runs.push_back(totals.last);
      ++result.attempted;
      if (!ok) ++result.failed;
    }
    RestoreCpus();
    const double cpu_s = CpuSeconds() - cpu0 - totals.recover_cpu_s;
    result.wall_s = WallSeconds() - wall0;
    FoldSeedRuns(runs, round_us, cpu_s, &result);
    const double rounds = static_cast<double>(result.rounds);
    result.layer["engine.observations_per_round"] = totals.observations / rounds;
    result.layer["wal.bytes_per_round"] = totals.wal_bytes / rounds;
    result.layer["wal.fsyncs_per_round"] = totals.fsyncs / rounds;
    result.layer["wal.checkpoint_bytes_last"] = totals.checkpoint_bytes_last;
    result.layer["wal.checkpoint_us_p50"] = Percentile(&checkpoint_us, 0.50);
    result.layer["wal.checkpoint_us_p99"] = Percentile(&checkpoint_us, 0.99);
    result.layer["wal.recover_us_per_round"] = totals.recover_s * 1e6 / rounds;
    result.layer["spatial.nodes_per_knn"] = world_.NodesPerKnn();
    std::printf("wal: fsync %s (directory %s tmpfs), %zu checkpoints timed\n",
                engine::FsyncModeName(fsync_), on_tmpfs_ ? "on" : "not on",
                checkpoint_us.size());
    return result;
  }

 private:
  struct Totals {
    SeedRun last;
    double observations = 0;
    double wal_bytes = 0;
    double fsyncs = 0;
    double checkpoint_bytes_last = 0;
    double recover_s = 0;
    double recover_cpu_s = 0;
  };

  // The WAL syncs every round only where syncing costs the program, not a
  // device: on tmpfs. Elsewhere it writes without fsync, so device waits on
  // a shared disk never enter the timings.
  void Prepare(const RunOptions& options) {
    wal_root_ = options.out_dir + "/wal";
    std::filesystem::create_directories(wal_root_);
    on_tmpfs_ = OnTmpfs(wal_root_);
    fsync_ = on_tmpfs_ ? engine::FsyncMode::kRound : engine::FsyncMode::kNone;
  }

  static std::unique_ptr<engine::LnrCellResolver> MakeResolver(
      LnrClient* client, const QuerySampler* sampler, uint64_t seed) {
    LnrAggOptions options;
    options.seed = seed;
    options.cell.search.delta_fraction = 1e-6;
    options.cell.search.delta_prime_fraction = 1e-4;
    return std::make_unique<engine::LnrCellResolver>(client, sampler, options);
  }

  bool RunSeed(uint64_t seed, uint64_t budget, bool traced,
               std::vector<double>* round_us,
               std::vector<double>* checkpoint_us, Totals* totals) {
    const std::string dir = wal_root_ + "/seed-" + std::to_string(seed);
    std::filesystem::remove_all(dir);
    DirectTransport direct(world_.server());
    TimedTransport timed_wire(&direct);
    CensusSampler census(&world_.scenario().census);
    TimedSampler timed_sampler(&census);
    LnrClient client(world_.server(), {.k = kK, .budget = budget},
                     traced ? static_cast<LbsTransport*>(&timed_wire) : &direct);
    const auto resolver = MakeResolver(
        &client,
        traced ? static_cast<const QuerySampler*>(&timed_sampler) : &census,
        seed);
    TimedResolver timed_resolver(resolver.get());
    engine::EstimationEngine eng(
        traced ? static_cast<engine::CellResolver*>(&timed_resolver)
               : resolver.get());
    const engine::AggregateQuery* count = eng.AddAggregate(AggregateSpec::Count());
    engine::DurableEvidenceLog wal(
        {.dir = dir, .checkpoint_every_rounds = 64, .fsync = fsync_}, &eng,
        &client);
    TimedSink timed_sink(&wal);
    if (traced) eng.AttachSink(&timed_sink);

    totals->last = StepToBudget(&eng, count, budget, round_us, [&] {
      const uint64_t before = wal.checkpoints_written();
      const double t0 = WallSeconds();
      {
        Span span(Layer::kCheckpoint);
        wal.MaybeCheckpoint();
      }
      if (wal.checkpoints_written() != before) {
        checkpoint_us->push_back((WallSeconds() - t0) * 1e6);
      }
    });
    wal.Close();
    totals->observations += static_cast<double>(eng.evidence().num_observations());
    totals->wal_bytes += static_cast<double>(wal.wal_stats().bytes);
    totals->fsyncs += static_cast<double>(wal.wal_stats().fsyncs);
    totals->checkpoint_bytes_last = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".ckpt") {
        totals->checkpoint_bytes_last = std::max(
            totals->checkpoint_bytes_last, static_cast<double>(entry.file_size()));
      }
    }
    bool ok = wal.ok();

    // Read the finished directory back into a fresh stack: it must replay to
    // the live run's final estimate bits and trace fingerprint.
    const double w0 = WallSeconds();
    const double c0 = CpuSeconds();
    std::string error;
    double estimate = 0;
    uint64_t fingerprint = 0;
    {
      Span span(Layer::kRecover);
      engine::RecoveredRun rec = engine::RecoverDurableRun(dir);
      LnrClient fresh_client(world_.server(), {.k = kK, .budget = budget}, &direct);
      const auto fresh_resolver = MakeResolver(&fresh_client, &census, seed);
      engine::EstimationEngine fresh(fresh_resolver.get());
      error = rec.error;
      if (error.empty()) {
        fresh.RestoreEvidence(rec.evidence);
        const engine::AggregateQuery* replayed =
            fresh.AddAggregate(AggregateSpec::Count());
        error = engine::ApplyCheckpoint(rec, &fresh, &fresh_client);
        estimate = replayed->Estimate();
        fingerprint = engine::TraceFingerprint(replayed->trace());
      }
    }
    totals->recover_s += WallSeconds() - w0;
    totals->recover_cpu_s += CpuSeconds() - c0;
    if (!error.empty() || !SameBits(estimate, count->Estimate()) ||
        fingerprint != engine::TraceFingerprint(count->trace())) {
      ok = false;
      std::printf("check failed: seed %llu recovery (%s) estimate %.17g vs %.17g\n",
                  static_cast<unsigned long long>(seed), error.c_str(), estimate,
                  count->Estimate());
    }
    std::filesystem::remove_all(dir);
    return ok;
  }

  World<ChinaScenario> world_;
  std::string wal_root_;
  bool on_tmpfs_ = false;
  engine::FsyncMode fsync_ = engine::FsyncMode::kNone;
};

}  // namespace

std::unique_ptr<Workload> NewLrCensus() { return std::make_unique<LrCensus>(); }
std::unique_ptr<Workload> NewLnrDurable() {
  return std::make_unique<LnrDurable>();
}

}  // namespace e2ebench
