// Outside-in layer tracing for the libdpc benchmark.
//
// The benchmark cannot instrument the library, so it times the calls that
// cross the seams a deployment already has: a ProvenanceRecorder decorator
// (recorder hooks, metadata (de)serialization, the WAL decorator's journaling
// when one is stacked in), a MessageChannel decorator whose delivery-handler
// wrapper times the runtime's handling of each delivered message, and the
// benchmark's own calls to queries, checkpoints and recovery.
//
// Spans nest on one stack (the deployment is single-threaded). A span's self
// time is its duration minus the duration of the spans opened inside it, so
// the self times of one phase sum to the time covered by its top-level spans;
// the rest of the phase's wall time is the residual (event-queue dispatch,
// per-hop forwarding, and System work outside any decorated call).
#ifndef DPC_PERFBENCH_LAYER_TRACE_H_
#define DPC_PERFBENCH_LAYER_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "src/core/recorder.h"
#include "src/net/network.h"

namespace dpc::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

enum class Layer : int {
  kRuntime,     // the System's delivery handler (HandleMessage)
  kRecorder,    // scheme recorder hooks
  kMeta,        // ProvMeta SerializeMeta / DeserializeMeta
  kWal,         // WalRecorder journaling around the scheme's hooks
  kNet,         // MessageChannel::Send
  kBroadcast,   // MessageChannel::Broadcast (§5.5 sig)
  kCheckpoint,  // WalRecorder::Checkpoint
  kRecover,     // WalRecorder::Attach + Recover
  kQuery,       // ProvenanceQuerier::Query
  kCount
};

const char* LayerName(Layer layer);

// Per-layer totals accumulated between two Reset() calls.
struct LayerTotals {
  std::array<double, static_cast<int>(Layer::kCount)> self_s{};
  std::array<uint64_t, static_cast<int>(Layer::kCount)> spans{};
  // Sum of the durations of spans opened with an empty stack.
  double top_level_s = 0;

  double self(Layer l) const { return self_s[static_cast<int>(l)]; }
  uint64_t count(Layer l) const { return spans[static_cast<int>(l)]; }
  double SelfSum() const;
};

class SpanClock {
 public:
  void Begin(Layer layer) { stack_.push_back({Clock::now(), 0.0, layer}); }
  void End();

  // Starts a new accumulation window. Requires no open span.
  void Reset();
  const LayerTotals& totals() const { return totals_; }
  size_t depth() const { return stack_.size(); }

 private:
  struct Frame {
    Clock::time_point start;
    double child_s;
    Layer layer;
  };
  std::vector<Frame> stack_;
  LayerTotals totals_;
};

// RAII span; a null clock makes it a no-op, so untraced code paths can
// share the benchmark's own call sites.
class Span {
 public:
  Span(SpanClock* clock, Layer layer) : clock_(clock) {
    if (clock_ != nullptr) clock_->Begin(layer);
  }
  ~Span() {
    if (clock_ != nullptr) clock_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanClock* clock_;
};

// Times every hook of `inner` as a `hook_layer` span and every metadata
// (de)serialization as a kMeta span. Node-state serialization passes through
// untimed: it only runs inside checkpoint and recovery spans.
class TimedRecorder : public ProvenanceRecorder {
 public:
  TimedRecorder(ProvenanceRecorder* inner, SpanClock* clock, Layer hook_layer)
      : inner_(inner), clock_(clock), hook_layer_(hook_layer) {}

  std::string name() const override { return inner_->name(); }
  ProvMeta OnInject(NodeId node, const TupleRef& event) override;
  ProvMeta OnRuleFired(NodeId node, const Rule& rule, const TupleRef& event,
                       const ProvMeta& meta,
                       const std::vector<TupleRef>& slow,
                       const TupleRef& head) override;
  void OnOutput(NodeId node, const TupleRef& output,
                const ProvMeta& meta) override;
  void OnArrival(NodeId node, const TupleRef& tuple,
                 const ProvMeta& meta) override;
  bool OnSlowInsert(NodeId node, const TupleRef& t) override;
  void OnSlowDelete(NodeId node, const Tuple& t) override;
  void OnControlSignal(NodeId node) override;
  void SerializeMeta(const ProvMeta& meta, ByteWriter& w) const override;
  Result<ProvMeta> DeserializeMeta(ByteReader& r) const override;

  StorageBreakdown StorageAt(NodeId node) const override {
    return inner_->StorageAt(node);
  }
  bool SupportsNodeState() const override {
    return inner_->SupportsNodeState();
  }
  void SerializeNodeState(NodeId node, ByteWriter& w) const override {
    inner_->SerializeNodeState(node, w);
  }
  Status RestoreNodeState(NodeId node, ByteReader& r) override {
    return inner_->RestoreNodeState(node, r);
  }
  uint64_t StateEpoch(NodeId node) const override {
    return inner_->StateEpoch(node);
  }

 private:
  ProvenanceRecorder* inner_;
  SpanClock* clock_;
  Layer hook_layer_;
};

// Times Send and Broadcast, and wraps the delivery handler the System
// installs so each delivered message's handling is a kRuntime span.
class TimedChannel : public MessageChannel {
 public:
  TimedChannel(MessageChannel* inner, SpanClock* clock)
      : inner_(inner), clock_(clock) {}
  TimedChannel(const TimedChannel&) = delete;
  TimedChannel& operator=(const TimedChannel&) = delete;

  void SetDeliveryHandler(DeliveryHandler handler) override;
  void Send(Message msg) override;
  void Broadcast(NodeId from, Message msg) override;

 private:
  MessageChannel* inner_;
  SpanClock* clock_;
};

}  // namespace dpc::perfbench

#endif  // DPC_PERFBENCH_LAYER_TRACE_H_
