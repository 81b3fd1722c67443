#include "spans.h"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace e2ebench {
namespace {

// Read by dispatcher worker threads inside traced phases.
std::atomic<SpanRecorder*> g_active{nullptr};
thread_local void* t_owner = nullptr;
thread_local void* t_state = nullptr;

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRound: return "engine";
    case Layer::kResolver: return "resolver";
    case Layer::kSampler: return "sampler";
    case Layer::kWire: return "wire";
    case Layer::kWirePrepare: return "wire.prepare";
    case Layer::kWalAppend: return "wal.append";
    case Layer::kCheckpoint: return "wal.checkpoint";
    case Layer::kRecover: return "wal.recover";
    case Layer::kSlice: return "service";
    case Layer::kSubmit: return "service.submit";
  }
  return "?";
}

void DurationHistogram::Add(uint64_t ns) {
  size_t index;
  if (ns < kSub) {
    index = static_cast<size_t>(ns);
  } else {
    const int octave = std::bit_width(ns) - 1;  // >= 6
    const int shift = octave - 6;
    index = static_cast<size_t>((octave - 5) * kSub) +
            static_cast<size_t>((ns >> shift) & (kSub - 1));
  }
  ++buckets_[std::min(index, buckets_.size() - 1)];
  ++count_;
}

void DurationHistogram::Merge(const DurationHistogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double DurationHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  const uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count_ - 1));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen > rank) {
      if (i < kSub) return static_cast<double>(i + 1);
      // Inverse of Add: bucket i spans [(64 + sub) << shift, (65 + sub) << shift).
      const int shift = static_cast<int>(i / kSub) - 1;
      return static_cast<double>((kSub + 1 + i % kSub) << shift);
    }
  }
  return 0.0;
}

SpanRecorder::SpanRecorder(size_t keep_spans)
    : keep_spans_(keep_spans), origin_ns_(NowNs()), kept_(keep_spans) {}

SpanRecorder::~SpanRecorder() {
  SpanRecorder* self = this;
  g_active.compare_exchange_strong(self, nullptr);
}

SpanRecorder* SpanRecorder::active() {
  return g_active.load(std::memory_order_acquire);
}
void SpanRecorder::set_active(SpanRecorder* recorder) {
  g_active.store(recorder, std::memory_order_release);
}

SpanRecorder::ThreadState* SpanRecorder::State() {
  if (t_owner != this) {
    auto state = std::make_unique<ThreadState>();
    std::lock_guard<std::mutex> lock(mu_);
    state->tid = static_cast<uint32_t>(threads_.size() + 1);
    t_state = state.get();
    t_owner = this;
    threads_.push_back(std::move(state));
  }
  return static_cast<ThreadState*>(t_state);
}

void SpanRecorder::Open(Layer layer) {
  ThreadState* state = State();
  const uint64_t slot = next_kept_.fetch_add(1, std::memory_order_relaxed);
  const int64_t kept = slot < keep_spans_ ? static_cast<int64_t>(slot) : -1;
  state->stack.push_back({layer, NowNs(), 0, kept});
}

void SpanRecorder::Close() {
  const uint64_t end = NowNs();
  ThreadState* state = State();
  const Frame frame = state->stack.back();
  state->stack.pop_back();
  const uint64_t dur = end - frame.start_ns;
  LayerTotals& totals = state->totals[static_cast<int>(frame.layer)];
  ++totals.spans;
  totals.total_ns += dur;
  totals.self_ns += dur - std::min(dur, frame.child_ns);
  totals.durations.Add(dur);
  int64_t parent = -1;
  if (!state->stack.empty()) {
    state->stack.back().child_ns += dur;
    parent = state->stack.back().kept;
  }
  if (frame.kept >= 0) {
    kept_[static_cast<size_t>(frame.kept)] = {
        frame.start_ns - origin_ns_, dur, parent, state->id, state->tid,
        frame.layer};
  }
}

void SpanRecorder::SetId(uint64_t id) { State()->id = id; }

std::vector<LayerTotals> SpanRecorder::Totals(uint32_t tid) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<LayerTotals> merged(kNumLayers);
  for (const auto& thread : threads_) {
    if (tid != 0 && thread->tid != tid) continue;
    for (int i = 0; i < kNumLayers; ++i) {
      merged[i].spans += thread->totals[i].spans;
      merged[i].total_ns += thread->totals[i].total_ns;
      merged[i].self_ns += thread->totals[i].self_ns;
      merged[i].durations.Merge(thread->totals[i].durations);
    }
  }
  return merged;
}

uint64_t SpanRecorder::recorded() const {
  return next_kept_.load(std::memory_order_relaxed);
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t n = std::min<uint64_t>(keep_spans_, recorded());
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  for (size_t i = 0; i < n; ++i) {
    const Raw& s = kept_[i];
    if (s.dur_ns == 0 && s.start_ns == 0) continue;  // never closed
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%lld,\"id\":%llu}}\n",
                 i == 0 ? "" : ",", LayerName(s.layer), LayerName(s.layer),
                 s.tid, static_cast<double>(s.start_ns) / 1000.0,
                 static_cast<double>(s.dur_ns) / 1000.0, i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.id));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace e2ebench
