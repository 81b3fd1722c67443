// End-to-end benchmark: one workload, one seed, a fixed amount of
// work. Prints a stamp, the run's tables, and as its last line one JSON
// object with the checked-operation counts and the metrics:
//
//   e2ebench --workload lr_census --seed 3 --seconds 12 --trace 0 --out-dir D
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// runs the same work untraced and then traced, reports the per-layer
// metrics, and writes the traced spans to D/trace-<workload>-<seed>.json.

#include <cpuid.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"

namespace e2ebench {

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double pos = q * static_cast<double>(values->size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values->size() - 1);
  return (*values)[lo] + (pos - static_cast<double>(lo)) *
                             ((*values)[hi] - (*values)[lo]);
}

size_t Beyond(size_t n, double q) {
  return n - std::min(n, static_cast<size_t>(std::ceil(q * static_cast<double>(n))));
}

namespace {
const cpu_set_t kStartCpus = [] {
  cpu_set_t set;
  CPU_ZERO(&set);
  sched_getaffinity(0, sizeof set, &set);
  return set;
}();
}  // namespace

void RotateCpu(size_t i) {
  const size_t n = static_cast<size_t>(CPU_COUNT(&kStartCpus));
  if (n == 0) return;
  size_t want = i % n;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &kStartCpus)) continue;
    if (want-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof one, &one);
      return;
    }
  }
}

void RestoreCpus() { sched_setaffinity(0, sizeof kStartCpus, &kStartCpus); }

uint64_t DeriveSeed(uint64_t seed, uint64_t i) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (i + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

constexpr int kSetupRepeats = 4;
constexpr size_t kKeptSpans = 200000;

struct Metric {
  const char* name;
  const char* unit;
};

// Every metric of BENCHMARK.json, in its order.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"queries_per_cpu_s", "queries/CPU-s"},
    {"round_us_p50", "us"},
    {"round_us_p90", "us"},
    {"sessions_per_cpu_s", "sessions/CPU-s"},
};

constexpr Metric kPerLayer[] = {
    {"setup.scenario_s", "s"},
    {"setup.server_s", "s"},
    {"sampler.us_per_round", "us"},
    {"sampler.calls_per_round", "count"},
    {"wire.us_per_round", "us"},
    {"wire.ns_per_call_p50", "ns"},
    {"wire.ns_per_call_p99", "ns"},
    {"wire.calls_per_round", "count"},
    {"wire.attempts_per_query", "ratio"},
    {"spatial.nodes_per_knn", "count"},
    {"resolver.self_us_per_round", "us"},
    {"resolver.queries_per_round", "count"},
    {"estimator.queries_to_ci10", "queries"},
    {"estimator.wall_s_to_ci10", "s"},
    {"engine.round_us_p99", "us"},
    {"engine.fold_us_per_round", "us"},
    {"engine.observations_per_round", "count"},
    {"wal.append_us_per_round", "us"},
    {"wal.checkpoint_us_p50", "us"},
    {"wal.checkpoint_us_p99", "us"},
    {"wal.bytes_per_round", "B"},
    {"wal.fsyncs_per_round", "count"},
    {"wal.checkpoint_bytes_last", "B"},
    {"wal.recover_us_per_round", "us"},
    {"service.slice_us_p50", "us"},
    {"service.slice_us_p99", "us"},
    {"service.queue_wait_ms_p50", "ms"},
    {"service.queue_wait_ms_p90", "ms"},
    {"service.active_mean", "count"},
    {"service.session_ms_p50", "ms"},
    {"service.session_ms_p90", "ms"},
    {"dedup.hit_ratio", "ratio"},
    {"generator.late_ms_p99", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.coverage_pct", "%"},
};

std::string CpuModel() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  std::string model(reinterpret_cast<const char*>(regs), sizeof regs);
  model = model.c_str();
  while (!model.empty() && model.front() == ' ') model.erase(model.begin());
  return model;
}

bool ParseArgs(int argc, char** argv, RunOptions* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--out-dir") {
      options->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty() && options->seconds > 0 &&
         !options->out_dir.empty();
}

void PrintResult(const PhaseResult& result,
                 const std::map<std::string, double>& values,
                 const Metric* metrics, size_t num_metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (size_t i = 0; i < num_metrics; ++i) {
    const auto it = values.find(metrics[i].name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name,
                it == values.end() ? 0.0 : it->second, metrics[i].unit);
  }
  std::printf("}}\n");
}

// Per-layer values from the traced phase's spans, plus the self-time table:
// the main thread's rows sum to its root spans; spans recorded on other
// threads (dispatcher workers) are listed apart.
std::map<std::string, double> LayerMetrics(const SpanRecorder& recorder,
                                           const PhaseResult& traced) {
  const std::vector<LayerTotals> all = recorder.Totals(0);
  const std::vector<LayerTotals> main = recorder.Totals(1);
  const double rounds = static_cast<double>(std::max<uint64_t>(1, traced.rounds));
  auto self_us = [&](Layer layer) {
    return static_cast<double>(all[static_cast<int>(layer)].self_ns) / 1e3 / rounds;
  };
  auto spans = [&](Layer layer) {
    return static_cast<double>(all[static_cast<int>(layer)].spans) / rounds;
  };
  std::map<std::string, double> m = traced.layer;
  m["sampler.us_per_round"] = self_us(Layer::kSampler);
  m["sampler.calls_per_round"] = spans(Layer::kSampler);
  m["wire.us_per_round"] = self_us(Layer::kWire) + self_us(Layer::kWirePrepare);
  const DurationHistogram& calls = all[static_cast<int>(Layer::kWire)].durations;
  m["wire.ns_per_call_p50"] = calls.Quantile(0.50);
  m["wire.ns_per_call_p99"] = calls.Quantile(0.99);
  m["wire.calls_per_round"] = spans(Layer::kWire);
  if (m.find("wire.attempts_per_query") == m.end()) {
    m["wire.attempts_per_query"] = calls.count() > 0 ? 1.0 : 0.0;
  }
  const bool service = all[static_cast<int>(Layer::kSlice)].spans > 0;
  m["resolver.self_us_per_round"] =
      service ? self_us(Layer::kSlice) : self_us(Layer::kResolver);
  m["engine.fold_us_per_round"] = self_us(Layer::kRound);
  m["wal.append_us_per_round"] = self_us(Layer::kWalAppend);

  double roots_ns = 0, main_self_ns = 0;
  for (int i = 0; i < kNumLayers; ++i) main_self_ns += static_cast<double>(main[i].self_ns);
  for (Layer root : {Layer::kRound, Layer::kCheckpoint, Layer::kRecover,
                     Layer::kSlice, Layer::kSubmit}) {
    roots_ns += static_cast<double>(main[static_cast<int>(root)].total_ns);
  }
  const double busy_s = traced.wall_s - traced.idle_s;
  m["trace.coverage_pct"] = 100.0 * roots_ns / 1e9 / busy_s;

  std::printf("\nper-layer self time, traced phase (%.3f s wall, %.3f s idle, "
              "%llu rounds, %llu spans)\n",
              traced.wall_s, traced.idle_s,
              static_cast<unsigned long long>(traced.rounds),
              static_cast<unsigned long long>(recorder.recorded()));
  std::printf("  %-16s %12s %8s %12s\n", "layer", "self s", "share", "spans");
  for (int i = 0; i < kNumLayers; ++i) {
    if (main[i].spans == 0) continue;
    std::printf("  %-16s %12.6f %7.2f%% %12llu\n", LayerName(static_cast<Layer>(i)),
                main[i].self_ns / 1e9, 100.0 * main[i].self_ns / 1e9 / busy_s,
                static_cast<unsigned long long>(main[i].spans));
  }
  std::printf("  %-16s %12.6f %7.2f%%\n", "uncovered", busy_s - main_self_ns / 1e9,
              100.0 * (busy_s - main_self_ns / 1e9) / busy_s);
  for (int i = 0; i < kNumLayers; ++i) {
    const uint64_t off = all[i].self_ns - main[i].self_ns;
    if (off == 0) continue;
    std::printf("  %-16s %12.6f  (on worker threads, concurrent)\n",
                LayerName(static_cast<Layer>(i)), off / 1e9);
  }
  return m;
}

int Run(const RunOptions& options) {
  std::unique_ptr<Workload> workload;
  if (options.workload == "lr_census") {
    workload = NewLrCensus();
  } else if (options.workload == "lnr_durable") {
    workload = NewLnrDurable();
  } else if (options.workload == "service_mix") {
    workload = NewServiceMix();
  } else {
    std::fprintf(stderr, "error: unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(options.out_dir);

  std::vector<double> scenario_s, server_s, total_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    double scenario = 0, server = 0;
    RotateCpu(static_cast<size_t>(i));
    workload->Setup(options.trace, &scenario, &server);
    scenario_s.push_back(scenario);
    server_s.push_back(server);
    total_s.push_back(scenario + server);
  }
  RestoreCpus();
  std::printf("setup: %d repeats, scenario %.3f s, server %.3f s (medians)\n",
              kSetupRepeats, Percentile(&scenario_s, 0.5), Percentile(&server_s, 0.5));
  workload->WarmUp(options);

  PhaseResult result = workload->Run(options, false);
  result.metrics["setup_s"] = Percentile(&total_s, 0.5);
  result.metrics["peak_rss_mb"] = PeakRssMb();
  if (!options.trace) {
    PrintResult(result, result.metrics, kEndToEnd, std::size(kEndToEnd));
    return 0;
  }

  SpanRecorder recorder(kKeptSpans);
  SpanRecorder::set_active(&recorder);
  PhaseResult traced = workload->Run(options, true);
  SpanRecorder::set_active(nullptr);
  std::map<std::string, double> layers = LayerMetrics(recorder, traced);
  // Latencies and the 10% CI point come from the untraced phase; tracing
  // would inflate them.
  for (const char* name :
       {"estimator.queries_to_ci10", "estimator.wall_s_to_ci10",
        "engine.round_us_p99", "service.session_ms_p50", "service.session_ms_p90"}) {
    layers[name] = result.layer[name];
  }
  layers["setup.scenario_s"] = Percentile(&scenario_s, 0.5);
  layers["setup.server_s"] = Percentile(&server_s, 0.5);
  layers["trace.overhead_pct"] =
      100.0 * (result.queries_per_cpu_s / traced.queries_per_cpu_s - 1.0);
  const std::string path = options.out_dir + "/trace-" + options.workload + "-" +
                           std::to_string(options.seed) + ".json";
  if (!recorder.WriteChromeTrace(path)) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("chrome trace: %s (first %zu spans)\n", path.c_str(), kKeptSpans);
  traced.attempted += result.attempted;
  traced.failed += result.failed;
  PrintResult(traced, layers, kPerLayer, std::size(kPerLayer));
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  e2ebench::RunOptions options;
  if (!e2ebench::ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s --workload <lr_census|lnr_durable|service_mix> "
                 "--seed N --seconds N --trace 0|1 --out-dir DIR\n",
                 argv[0]);
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "error: refusing to report numbers from a build with "
                       "assertions on (build type %s)\n", E2E_BUILD_TYPE);
  return 3;
#endif
  if (std::strcmp(E2E_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "error: build type %s is not Release\n", E2E_BUILD_TYPE);
    return 3;
  }
  const std::string cpu = e2ebench::CpuModel();
  std::printf("stamp: workload=%s seed=%llu seconds=%d trace=%d nproc=%ld "
              "cpu=\"%s\" compiler=\"%s\" build=%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN), cpu.c_str(),
              E2E_COMPILER, E2E_BUILD_TYPE);
  return e2ebench::Run(options);
}
