#ifndef E2EBENCH_BENCH_H_
#define E2EBENCH_BENCH_H_

// Shared plumbing of the three workloads: clocks, percentiles, the result
// record each workload fills, and the seeded streams that make a run's
// inputs a pure function of --seed.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lbs/server.h"
#include "obs/metrics.h"
#include "spans.h"

namespace e2ebench {

// Every workload asks for the top k=5 over a world of 10^6 tuples.
inline constexpr int kK = 5;
inline constexpr int kTuples = 1000000;

double WallSeconds();
double CpuSeconds();  // process CPU time, every thread
double PeakRssMb();

// Linear-interpolated quantile of `values` (sorted in place).
double Percentile(std::vector<double>* values, double q);
// Samples strictly beyond the q-quantile of n samples.
size_t Beyond(size_t n, double q);

// Moves the calling thread to the i-th of the CPUs the process started with
// (modulo their number). The vCPUs of a shared host run at different speeds,
// so a run that spreads its seeds over all of them measures every core
// alike; RestoreCpus() undoes it.
void RotateCpu(size_t i);
void RestoreCpus();

// SplitMix64: the i-th seed of the stream rooted at `seed`.
uint64_t DeriveSeed(uint64_t seed, uint64_t i);

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;      // sizes the fixed work; never a timer
  bool trace = false;
  std::string out_dir;   // WAL directories and trace files
};

// What one measured phase of a workload produced.
struct PhaseResult {
  uint64_t attempted = 0;  // checked operations
  uint64_t failed = 0;     // operations whose check failed
  std::map<std::string, double> metrics;  // end-to-end values of the phase
  double queries_per_cpu_s = 0;
  // Traced phase only.
  double wall_s = 0;       // wall time of the phase
  double idle_s = 0;       // time the open-loop generator slept
  uint64_t rounds = 0;     // engine rounds (service: scheduler slices)
  std::map<std::string, double> layer;  // per-layer values measured inline
};

// The world a workload runs over: a scenario and a kd-tree LbsServer.
template <typename Scenario>
class World {
 public:
  // One set-up repetition: drops the previous world, then times the scenario
  // build and the server (index) construction. `stats` routes the kd-tree
  // counters into this world's registry.
  template <typename Build>
  void Rebuild(Build build, bool stats, double* scenario_s, double* server_s) {
    server_.reset();
    scenario_.reset();
    const double t0 = WallSeconds();
    scenario_ = std::make_unique<Scenario>(build());
    const double t1 = WallSeconds();
    server_ = std::make_unique<lbsagg::LbsServer>(
        scenario_->dataset.get(),
        lbsagg::ServerOptions{.max_k = kK,
                              .stats_registry = stats ? &stats_ : nullptr});
    *scenario_s = t1 - t0;
    *server_s = WallSeconds() - t1;
  }

  const Scenario& scenario() const { return *scenario_; }
  lbsagg::LbsServer* server() { return server_.get(); }

  // Mean kd-tree nodes visited per kNN search since the last MarkKnn (0
  // unless the world was built with stats).
  void MarkKnn() {
    searches0_ = Counter("spatial.kdtree.searches");
    nodes0_ = Counter("spatial.kdtree.nodes_visited");
  }
  double NodesPerKnn() {
    const double searches = Counter("spatial.kdtree.searches") - searches0_;
    return searches > 0
               ? (Counter("spatial.kdtree.nodes_visited") - nodes0_) / searches
               : 0;
  }

 private:
  double Counter(const char* name) {
    return static_cast<double>(stats_.GetCounter(name)->Value());
  }

  lbsagg::obs::MetricsRegistry stats_;
  std::unique_ptr<Scenario> scenario_;
  std::unique_ptr<lbsagg::LbsServer> server_;
  double searches0_ = 0;
  double nodes0_ = 0;
};

// A workload builds its world once per set-up repetition (keeping the last)
// and then runs phases over it.
class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  // One set-up repetition; `stats` asks for spatial-index counters.
  virtual void Setup(bool stats, double* scenario_s, double* server_s) = 0;
  // Discarded warm-up at a small fixed size.
  virtual void WarmUp(const RunOptions& options) = 0;
  // The measured phase; `traced` installs the timing decorators.
  virtual PhaseResult Run(const RunOptions& options, bool traced) = 0;
};

std::unique_ptr<Workload> NewLrCensus();
std::unique_ptr<Workload> NewLnrDurable();
std::unique_ptr<Workload> NewServiceMix();

}  // namespace e2ebench

#endif  // E2EBENCH_BENCH_H_
