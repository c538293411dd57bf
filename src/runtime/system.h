// System: the distributed DELP runtime (§3.1). One Program runs at every
// node of a Topology; events injected at a node trigger rules by pipelined
// semi-naïve evaluation, and derived head tuples travel as network messages
// to the node named by their location specifier. A ProvenanceRecorder
// observes every injection / rule firing / output and maintains the
// provenance storage under its scheme.
#ifndef DPC_RUNTIME_SYSTEM_H_
#define DPC_RUNTIME_SYSTEM_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/planner.h"
#include "src/core/recorder.h"
#include "src/db/table.h"
#include "src/ndlog/eval.h"
#include "src/ndlog/program.h"
#include <atomic>

#include "src/net/event_queue.h"
#include "src/net/network.h"
#include "src/runtime/replay.h"
#include "src/util/result.h"

namespace dpc {

class ShardEngine;

// A terminal output tuple together with the provenance metadata it arrived
// with (used by tests and provenance queries).
struct OutputRecord {
  Tuple tuple;
  ProvMeta meta;
  SimTime time = 0;
};

struct SystemStats {
  uint64_t events_injected = 0;
  uint64_t rule_firings = 0;
  uint64_t outputs = 0;
  uint64_t control_signals = 0;
};

class System {
 public:
  // All pointers must outlive the System. The recorder may be null (run
  // without provenance). `channel` is the message path between nodes —
  // the raw (lossy) Network, or a ReliableTransport layered over it when
  // the deployment must survive injected faults.
  System(const Program* program, const Topology* topology,
         MessageChannel* channel, EventQueue* queue,
         FunctionRegistry functions, ProvenanceRecorder* recorder);

  // Runs this System on a sharded parallel engine (src/net/shard_engine.h):
  // injections route to the owning shard's queue and Run/RunUntil drive
  // conservative windows instead of `queue`. Call before the first
  // ScheduleInject/Run; the engine must outlive the System. The channel
  // must be bound to the same engine (Network::BindShardEngine) so
  // deliveries execute on the destination node's shard.
  void BindShardEngine(ShardEngine* engine) { engine_ = engine; }

  // --- state management -----------------------------------------------

  // Inserts a slow-changing (base) tuple into its node's database. If the
  // recorder requests it (§5.5), broadcasts a sig control message.
  Status InsertSlowTuple(const Tuple& t);
  Status DeleteSlowTuple(const Tuple& t);

  // --- execution --------------------------------------------------------

  // Schedules the injection of `event` (a tuple of the program's input
  // event relation, located at its injection node) at simulated time
  // `when`.
  Status ScheduleInject(const Tuple& event, SimTime when);

  // Runs the simulation until the queue(s) drain (bounded by `max_events`).
  void Run(size_t max_events = 0);
  void RunUntil(SimTime t);

  // --- observation -------------------------------------------------------

  Database& DbAt(NodeId node) { return dbs_[node]; }
  const Database& DbAt(NodeId node) const { return dbs_[node]; }

  const std::vector<OutputRecord>& OutputsAt(NodeId node) const {
    return outputs_[node];
  }
  std::vector<OutputRecord> AllOutputs() const;

  // Invoked on every terminal output (after the recorder hook).
  void SetOutputCallback(std::function<void(NodeId, const OutputRecord&)> cb) {
    output_callback_ = std::move(cb);
  }

  // When set, every non-deterministic input (slow-table operation, event
  // injection) is appended to `log` for §3.2-style replay. Must outlive
  // the System.
  void SetReplayLog(ReplayLog* log) { replay_log_ = log; }

  // Toggles set-at-a-time batch evaluation (on by default): same-instant,
  // same-(node, relation) events drain into one batch whose rules are
  // evaluated once per batch (src/runtime/batch_eval.h), with firings,
  // recorder hooks and sends emitted in exactly the tuple-at-a-time order
  // — provenance bytes, storage accounting and query answers are
  // byte-identical either way (docs/perf.md).
  void SetBatchEval(bool enabled) { batch_eval_ = enabled; }
  bool batch_eval() const { return batch_eval_; }

  // Processes one incoming message as the channel's delivery handler
  // does. Public so tests can feed arbitrary peer bytes straight at the
  // runtime: a malformed event payload (undecodable tuple/meta, missing
  // integer location) returns InvalidArgument — counted under
  // "system.malformed_messages" — and never aborts the node.
  Status HandleMessage(const Message& msg);

  // Snapshot of the run counters. By value: the internal counters are
  // atomics bumped from shard workers, and a struct copy of them taken
  // while idle (or between windows) is exact.
  SystemStats stats() const {
    SystemStats s;
    s.events_injected = stats_.events_injected.load(std::memory_order_relaxed);
    s.rule_firings = stats_.rule_firings.load(std::memory_order_relaxed);
    s.outputs = stats_.outputs.load(std::memory_order_relaxed);
    s.control_signals = stats_.control_signals.load(std::memory_order_relaxed);
    return s;
  }
  const Program& program() const { return *program_; }
  // The statically compiled evaluation plan (one RulePlan per program
  // rule, in rule order) that ProcessEvent executes via FireRulePlanned.
  const ProgramPlan& plan() const { return plan_; }
  const FunctionRegistry& functions() const { return functions_; }
  ProvenanceRecorder* recorder() const { return recorder_; }
  const Topology& topology() const { return *topology_; }
  EventQueue& queue() { return *queue_; }

 private:
  // One same-instant batch member awaiting deferred processing: the event
  // plus everything Phase B needs to replay its hooks in original order.
  struct PendingEvent {
    TupleRef tuple;
    ProvMeta meta;    // arrival meta; unused for injections
    bool is_arrival;  // false: injection (OnInject produces the meta)
  };

  // Shared entry for injected and delivered trigger events. Appends to the
  // active batch collector when one is draining, starts a batch when the
  // queue's next entry carries the same tag, and otherwise processes the
  // event tuple-at-a-time.
  void Dispatch(NodeId node, const TupleRef& tuple, const ProvMeta& meta,
                bool is_arrival, uint64_t tag);
  bool TryProcessBatch(NodeId node, const TupleRef& tuple,
                       const ProvMeta& meta, bool is_arrival, uint64_t tag);
  // Phase A: per-rule set-at-a-time evaluation (pure; reads dbs_ only).
  // Phase B: per event in batch order, pre-hooks then firing emission —
  // the exact tuple-at-a-time sequence of recorder calls and sends.
  void ProcessBatch(NodeId node, std::vector<PendingEvent>& batch);
  // OnArrival (arrivals) / OnInject (injections, returns the meta).
  ProvMeta RunEventHook(NodeId node, const TupleRef& tuple,
                        const ProvMeta& meta, bool is_arrival);
  // Routes one rule firing: counters, head validation, OnRuleFired, then
  // send/output. Shared by ProcessEvent and ProcessBatch so emission is
  // identical byte-for-byte on both paths.
  void EmitFiring(NodeId node, const Rule& rule, const TupleRef& tuple,
                  const ProvMeta& meta, RuleFiring& f);
  // Batch tag for deliveries of `relation` at `node`; 0 when the relation
  // is not statically batchable or batching is off.
  uint64_t BatchTagFor(NodeId node, const std::string& relation) const;

  void ProcessEvent(NodeId node, const TupleRef& tuple, const ProvMeta& meta);
  void EmitOutput(NodeId node, const TupleRef& tuple, const ProvMeta& meta);
  void SendEvent(NodeId from, const TupleRef& tuple, const ProvMeta& meta);
  std::vector<uint8_t> EncodeEventPayload(const Tuple& tuple,
                                          const ProvMeta& meta) const;
  // Simulated time at `node`'s shard (== queue_->now() unsharded). Inside
  // an event callback at `node` this is the executing event's time.
  SimTime NowFor(NodeId node) const;
  // Barrier/global time when sharded, queue time otherwise (idle-only).
  SimTime GlobalNow() const;

  const Program* program_;
  ProgramPlan plan_;
  const Topology* topology_;
  MessageChannel* channel_;
  EventQueue* queue_;
  FunctionRegistry functions_;
  ProvenanceRecorder* recorder_;

  ReplayLog* replay_log_ = nullptr;
  bool batch_eval_ = true;
  ShardEngine* engine_ = nullptr;
  // Statically batchable trigger relations -> tag ordinal (>= 1), computed
  // once at construction. A trigger relation is batchable when no
  // triggered rule derives a head that is a condition relation of a
  // triggered rule — otherwise a same-instant local output could be
  // visible to later batch members under tuple-at-a-time evaluation but
  // not under a pre-collected batch. Read-only after the constructor.
  std::map<std::string, uint64_t> batch_relation_ids_;
  // The batch collector active on this thread, if any: DrainAtTime runs
  // peers' queue entries whose Dispatch must append here instead of
  // processing. Thread-local because shard workers batch independently.
  static thread_local std::vector<PendingEvent>* tls_collector_;
  static thread_local System* tls_collector_owner_;
  // Per-node state: confined to the shard owning the node (one thread at
  // a time; the engine's barriers order cross-window handoffs).
  std::vector<Database> dbs_;
  std::vector<std::vector<OutputRecord>> outputs_;
  // Invoked from the emitting node's shard thread: must be thread-safe
  // when running sharded.
  std::function<void(NodeId, const OutputRecord&)> output_callback_;
  // Atomics: bumped concurrently from shard workers, lost-update-free.
  struct AtomicSystemStats {
    std::atomic<uint64_t> events_injected{0};
    std::atomic<uint64_t> rule_firings{0};
    std::atomic<uint64_t> outputs{0};
    std::atomic<uint64_t> control_signals{0};
  };
  AtomicSystemStats stats_;

  // Registry mirrors of stats_ (per-node scoped), resolved once at
  // construction; see src/obs/metrics.h.
  struct {
    Counter* events_injected;
    Counter* rule_firings;
    Counter* outputs;
    Counter* control_signals;
    Counter* malformed_messages;
    Counter* invalid_heads;
    Histogram* batch_size;
  } metrics_;
  // Firings produced via the batched path, one counter per program rule
  // ("system.batched_firings.<rule id>"), indexed by rule position.
  std::vector<Counter*> batched_firings_counters_;
  Tracer* tracer_;
};

}  // namespace dpc

#endif  // DPC_RUNTIME_SYSTEM_H_
