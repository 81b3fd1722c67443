#ifndef LBSAGG_OBS_REPORT_H_
#define LBSAGG_OBS_REPORT_H_

// RunReport: one JSON/table artifact per run merging everything the layers
// observed — estimator RunningStats (mean/CI), the metric plane's counters,
// gauges and histograms (client queries, kd-tree visits, HT weight
// histogram, transport attempts, ...), and raw JSON sections from subsystems
// with their own serialization (the engine's diagnostics, the service's
// scheduler view). Emitted by core/runner's BuildRunReport, every bench/fig*
// target (LBSAGG_RUN_REPORT=path), and examples/flaky_service --report. Validated against
// tools/report_schema.json by tools/validate_report.py.

#include <map>
#include <string>

#include "obs/metrics.h"
#include "util/stats.h"
#include "util/table.h"

namespace lbsagg {
namespace obs {

class RunReport {
 public:
  static constexpr int kSchemaVersion = 1;

  // String / numeric key-value metadata ("estimator": "lr", "budget": 4000).
  void SetMeta(const std::string& key, const std::string& value);
  void SetMetaNum(const std::string& key, double value);

  // Named RunningStats block (serialized via RunningStats::ToJson).
  void AddStats(const std::string& name, const RunningStats& stats);

  // The metric plane at end of run. Replaces any previous snapshot.
  void SetSnapshot(MetricsSnapshot snapshot);
  const MetricsSnapshot& snapshot() const { return snapshot_; }

  // Attaches a pre-serialized JSON value under sections.<name>; this is how
  // the engine and service diagnostics ride along without obs depending on
  // them.
  void AddJsonSection(const std::string& name, const std::string& raw_json);

  std::string ToJson(int indent = 0) const;
  Table ToTable() const;

 private:
  std::map<std::string, std::string> meta_;
  std::map<std::string, double> meta_num_;
  std::map<std::string, RunningStats> stats_;
  MetricsSnapshot snapshot_;
  std::map<std::string, std::string> sections_;
};

}  // namespace obs
}  // namespace lbsagg

#endif  // LBSAGG_OBS_REPORT_H_
