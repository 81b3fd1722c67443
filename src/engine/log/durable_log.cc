#include "engine/log/durable_log.h"

#include <filesystem>
#include <utility>

#include "util/check.h"

namespace lbsagg {
namespace engine {

namespace fs = std::filesystem;

namespace {

// Cumulative observations at the boundary after `rounds` committed rounds.
uint64_t ObservationsAt(const WalReplay& evidence, uint64_t rounds) {
  if (rounds == 0) return 0;
  const EvidenceRound& last = evidence.Round(rounds - 1);
  return last.first_observation + last.num_observations;
}

}  // namespace

// ---- DurableEvidenceLog ----

DurableEvidenceLog::DurableEvidenceLog(DurableLogOptions options,
                                       EstimationEngine* engine,
                                       LbsClient* client)
    : options_(std::move(options)), engine_(engine), client_(client) {
  LBSAGG_CHECK(engine_ != nullptr && client_ != nullptr);
  LBSAGG_CHECK(!options_.dir.empty()) << "DurableLogOptions::dir is required";
  // Attach after the aggregates are registered: the anchor checkpoint below
  // records their fingerprints, and resume verifies against the same set.
  LBSAGG_CHECK(engine_->num_aggregates() > 0)
      << "attach the durable log after registering aggregates";
  WalWriterOptions wal_options;
  wal_options.segment_bytes = options_.segment_bytes;
  wal_options.fsync = options_.fsync;
  wal_options.failpoint = options_.failpoint;
  writer_ = std::make_unique<WalWriter>(options_.dir, wal_options,
                                        engine_->evidence().num_rounds());
  engine_->AttachSink(this);
  // Anchor checkpoint at attach time, so every later recovery has a
  // checkpoint at or before whatever tail the crash leaves.
  Checkpoint();
}

DurableEvidenceLog::~DurableEvidenceLog() { Close(); }

void DurableEvidenceLog::OnBeginRound(uint64_t round,
                                      const Vec2& sample_point) {
  writer_->AppendBeginRound(round, sample_point);
}

void DurableEvidenceLog::OnAppend(uint64_t round,
                                  const Observation& observation) {
  (void)round;
  writer_->AppendObservation(observation);
}

void DurableEvidenceLog::OnEndRound(const EvidenceRound& round) {
  writer_->AppendEndRound(round);
  rounds_since_checkpoint_ += 1;
}

void DurableEvidenceLog::MaybeCheckpoint() {
  if (options_.checkpoint_every_rounds == 0) return;
  if (rounds_since_checkpoint_ >= options_.checkpoint_every_rounds) {
    Checkpoint();
  }
}

void DurableEvidenceLog::Checkpoint() {
  if (closed_ || !error_.empty()) return;
  // The checkpoint must not claim rounds the WAL hasn't made durable: sync
  // first, and skip checkpointing entirely once the writer has failed —
  // recovery will fall back to the last consistent (checkpoint, log) pair.
  writer_->Sync();
  if (!writer_->ok()) return;
  std::string error;
  if (!WriteCheckpointFile(options_.dir, BuildCheckpoint(*engine_, *client_),
                           &error)) {
    error_ = error;
    return;
  }
  checkpoints_written_ += 1;
  rounds_since_checkpoint_ = 0;
}

void DurableEvidenceLog::Close() {
  if (closed_) return;
  Checkpoint();
  writer_->Close();
  if (engine_->evidence().sink() == this) engine_->AttachSink(nullptr);
  closed_ = true;
}

// ---- checkpoint construction ----

CheckpointData BuildCheckpoint(const EstimationEngine& engine,
                               const LbsClient& client) {
  CheckpointData data;
  data.round = engine.evidence().num_rounds();
  data.observations = engine.evidence().num_observations();
  data.queries_used = client.queries_used();
  const CellResolver* resolver = engine.resolver();
  data.resolver_name = resolver->name();
  resolver->SaveState(&data.resolver_state);
  data.aggregates.reserve(engine.num_aggregates());
  for (size_t i = 0; i < engine.num_aggregates(); ++i) {
    const AggregateQuery* query = engine.aggregate(i);
    AggregateCheckpoint agg;
    agg.name = query->spec().name;
    agg.trace_hash = TraceFingerprint(query->trace());
    agg.estimate = query->rounds() > 0 ? query->Estimate() : 0.0;
    data.aggregates.push_back(std::move(agg));
  }
  return data;
}

// ---- recovery ----

RecoveredRun RecoverDurableRun(const std::string& dir) {
  RecoveredRun rec;
  WalReadResult read = ReadWal(dir);
  if (!read.error.empty()) {
    rec.error = read.error;
    return rec;
  }
  rec.torn_bytes = read.torn_bytes;
  const uint64_t complete = read.evidence.NumRounds();

  // A checkpoint is usable when it decodes, its round is covered by the
  // committed log, and its cumulative counters agree with the log at that
  // boundary (a checkpoint that outran what actually hit the disk — e.g.
  // under an injected write failure — is inconsistent and skipped).
  std::vector<CheckpointScanEntry> checkpoints = ScanCheckpoints(dir);
  std::vector<bool> usable(checkpoints.size(), false);
  int chosen = -1;
  for (size_t i = 0; i < checkpoints.size(); ++i) {
    const CheckpointScanEntry& entry = checkpoints[i];
    if (!entry.valid || entry.data.round > complete) continue;
    if (entry.data.observations != ObservationsAt(read.evidence,
                                                  entry.data.round)) {
      continue;
    }
    if (entry.data.round > 0 &&
        entry.data.queries_used !=
            read.evidence.Round(entry.data.round - 1).queries_after) {
      continue;
    }
    usable[i] = true;
    chosen = static_cast<int>(i);  // ascending order: last usable wins
  }

  uint64_t keep = 0;
  if (chosen >= 0) {
    rec.found_checkpoint = true;
    rec.checkpoint = checkpoints[chosen].data;
    keep = rec.checkpoint.round;
  }
  rec.discarded_rounds = complete - keep;

  std::string truncate_error;
  if (!TruncateWal(dir, keep, &truncate_error)) {
    rec.error = truncate_error;
    return rec;
  }
  // Checkpoints past the kept boundary reference rounds that no longer
  // exist; corrupt or inconsistent ones are dead weight. Older usable
  // checkpoints stay as fallback depth for future recoveries.
  for (size_t i = 0; i < checkpoints.size(); ++i) {
    if (static_cast<int>(i) == chosen) continue;
    if (usable[i] && checkpoints[i].data.round <= keep) continue;
    std::error_code ec;
    fs::remove(checkpoints[i].path, ec);
    if (!ec) rec.dropped_checkpoints += 1;
  }

  rec.evidence = std::move(read.evidence);
  rec.evidence.TruncateTo(keep);
  return rec;
}

std::string ApplyCheckpoint(const RecoveredRun& rec, EstimationEngine* engine,
                            LbsClient* client) {
  if (!rec.error.empty()) return "recovery failed: " + rec.error;
  const CheckpointData& ckpt = rec.checkpoint;
  if (engine->evidence().num_rounds() != ckpt.round) {
    return "engine holds " + std::to_string(engine->evidence().num_rounds()) +
           " rounds but the checkpoint expects " + std::to_string(ckpt.round) +
           " — call RestoreEvidence(rec.evidence) first";
  }
  if (engine->evidence().num_observations() != ckpt.observations) {
    return "replayed evidence has " +
           std::to_string(engine->evidence().num_observations()) +
           " observations, checkpoint recorded " +
           std::to_string(ckpt.observations);
  }
  if (ckpt.memo_hash != 0) {
    return "interrupted run used a warm query memo; memo contents are not "
           "durable, so a resumed run would charge different queries — "
           "resume refused";
  }
  if (!rec.found_checkpoint) return "";  // fresh start: nothing to restore

  CellResolver* resolver = engine->resolver();
  if (ckpt.resolver_name != resolver->name()) {
    return "checkpoint was taken by resolver '" + ckpt.resolver_name +
           "', engine runs '" + resolver->name() + "'";
  }
  if (!resolver->RestoreState(ckpt.resolver_state)) {
    return "resolver rejected the checkpoint state blob";
  }
  client->RestoreQueryCount(ckpt.queries_used);
  if (engine->num_aggregates() != ckpt.aggregates.size()) {
    return "engine registers " + std::to_string(engine->num_aggregates()) +
           " aggregates, checkpoint recorded " +
           std::to_string(ckpt.aggregates.size());
  }
  for (size_t i = 0; i < ckpt.aggregates.size(); ++i) {
    const AggregateQuery* query = engine->aggregate(i);
    if (query->spec().name != ckpt.aggregates[i].name) {
      return "aggregate " + std::to_string(i) + " is '" + query->spec().name +
             "', checkpoint recorded '" + ckpt.aggregates[i].name + "'";
    }
    if (TraceFingerprint(query->trace()) != ckpt.aggregates[i].trace_hash) {
      return "replayed fold of '" + query->spec().name +
             "' diverges from the checkpoint fingerprint";
    }
  }
  return "";
}

}  // namespace engine
}  // namespace lbsagg
