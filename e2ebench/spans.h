#ifndef E2EBENCH_SPANS_H_
#define E2EBENCH_SPANS_H_

// In-memory span recorder for the traced run. Every seam call the timing
// decorators wrap opens one span (layer, start, end, parent span, round or
// session id). Self time — a span's duration minus the part its child spans
// on the same thread cover — is folded into per-layer totals as each span
// closes, so the per-layer table covers every span of the run while only a
// bounded prefix of raw spans is kept for the Chrome trace file.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

// Layers use the library's module names; kRound is the benchmark's own root
// span (one engine Step plus the checkpoint policy), kSlice the service's.
enum class Layer : uint8_t {
  kRound = 0,   // engine: Step minus the resolver = the aggregate folds
  kResolver,    // core + geometry: ResolveRound minus its children
  kSampler,     // core/sampler: QuerySampler calls
  kWire,        // transport + lbs server + spatial: Fulfill
  kWirePrepare, // transport: Prepare (retry and fault policy)
  kWalAppend,   // engine/log: EvidenceSink callbacks into the WAL
  kCheckpoint,  // engine/log: MaybeCheckpoint
  kRecover,     // engine/log: RecoverDurableRun
  kSlice,       // service: RunSlice minus sampler and wire
  kSubmit,      // service: Submit
};
inline constexpr int kNumLayers = 10;
const char* LayerName(Layer layer);

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Log-linear histogram of nanosecond durations: 64 sub-buckets per power of
// two, so a reported percentile is within 1.6% of the recorded value.
class DurationHistogram {
 public:
  void Add(uint64_t ns);
  void Merge(const DurationHistogram& other);
  uint64_t count() const { return count_; }
  // Upper edge of the bucket holding the q-quantile (0 when empty).
  double Quantile(double q) const;

 private:
  static constexpr int kSub = 64;
  std::vector<uint64_t> buckets_ = std::vector<uint64_t>(64 * kSub, 0);
  uint64_t count_ = 0;
};

struct LayerTotals {
  uint64_t spans = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  DurationHistogram durations;
};

class SpanRecorder {
 public:
  // Keeps the first `keep_spans` raw spans for WriteChromeTrace.
  explicit SpanRecorder(size_t keep_spans);
  ~SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // The recorder spans are routed to; null when the run is untraced.
  static SpanRecorder* active();
  static void set_active(SpanRecorder* recorder);

  void Open(Layer layer);
  void Close();
  // Sets the round/session id carried by the calling thread's next spans.
  void SetId(uint64_t id);

  // Per-layer totals of thread `tid` (1 = the first thread that recorded),
  // or merged over every thread when `tid` is 0.
  std::vector<LayerTotals> Totals(uint32_t tid) const;
  uint64_t recorded() const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Raw {
    uint64_t start_ns;
    uint64_t dur_ns;
    int64_t parent;  // index into the kept spans; -1 = root or not kept
    uint64_t id;
    uint32_t tid;
    Layer layer;
  };
  struct Frame {
    Layer layer;
    uint64_t start_ns;
    uint64_t child_ns;
    int64_t kept;  // index of the kept span, -1 when past the cap
  };
  struct ThreadState {
    uint32_t tid = 0;
    uint64_t id = 0;
    std::vector<Frame> stack;
    std::vector<LayerTotals> totals = std::vector<LayerTotals>(kNumLayers);
  };
  ThreadState* State();

  const size_t keep_spans_;
  const uint64_t origin_ns_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadState>> threads_;
  std::vector<Raw> kept_;  // preallocated; slots claimed by next_kept_
  std::atomic<uint64_t> next_kept_{0};
};

// RAII span on the active recorder; free when the run is untraced.
class Span {
 public:
  explicit Span(Layer layer) : recorder_(SpanRecorder::active()) {
    if (recorder_ != nullptr) recorder_->Open(layer);
  }
  ~Span() {
    if (recorder_ != nullptr) recorder_->Close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* recorder_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_SPANS_H_
