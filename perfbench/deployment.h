// One Advanced-scheme deployment, wired from the same public constructors
// apps::Testbed::Create uses (EventQueue, Network, AdvancedRecorder,
// WalRecorder::Attach, System), with the benchmark's timing decorators
// optionally slotted into the recorder and channel seams System takes.
//
// Untraced, the System talks to the Network and the recorder stack
// directly, exactly as in a Testbed. Traced, the stack becomes
//
//   System -> TimedRecorder(wal) -> WalRecorder -> TimedRecorder(recorder)
//          -> AdvancedRecorder              (WAL configured)
//   System -> TimedRecorder(recorder) -> AdvancedRecorder   (no WAL)
//   System -> TimedChannel -> Network
//
// so WAL journaling and the scheme's own hook work land in separate layers.
#ifndef DPC_PERFBENCH_DEPLOYMENT_H_
#define DPC_PERFBENCH_DEPLOYMENT_H_

#include <memory>
#include <string>

#include "layer_trace.h"
#include "src/core/advanced_recorder.h"
#include "src/core/query.h"
#include "src/core/wal_recorder.h"
#include "src/ndlog/program.h"
#include "src/net/event_queue.h"
#include "src/net/network.h"
#include "src/runtime/system.h"

namespace dpc::perfbench {

struct DeploymentOptions {
  // Non-empty: journal every recorder mutation to per-node WALs here
  // (flush per record, no fsync: the library's default durability mode).
  std::string wal_dir;
  // Non-null: decorate the recorder and channel seams with spans on it.
  SpanClock* clock = nullptr;
};

class Deployment {
 public:
  // `topology` must outlive the deployment; `program` is copied in.
  static Result<std::unique_ptr<Deployment>> Create(const Program& program,
                                                    const Topology* topology,
                                                    DeploymentOptions options);
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  System& system() { return *system_; }
  EventQueue& queue() { return queue_; }
  Network& network() { return network_; }
  const AdvancedRecorder& advanced() const { return *advanced_; }
  // Null unless options.wal_dir was set.
  WalRecorder* wal() { return wal_.get(); }
  std::unique_ptr<ProvenanceQuerier> MakeQuerier() const;
  size_t TotalStorageBytes() const;
  // Writes every node's current state as a checkpoint into `dir` through a
  // WalRecorder attached for the purpose, for a deployment without a WAL.
  Status CheckpointTo(const std::string& dir);

 private:
  Deployment(const Program& program, const Topology* topology);

  Program program_;
  const Topology* topology_;
  EventQueue queue_;
  Network network_;
  // Declared in wrapping order, so each decorator is destroyed before
  // what it wraps.
  std::unique_ptr<AdvancedRecorder> advanced_;
  std::unique_ptr<TimedRecorder> timed_scheme_;
  std::unique_ptr<WalRecorder> wal_;
  std::unique_ptr<TimedRecorder> timed_wal_;
  std::unique_ptr<TimedChannel> timed_channel_;
  std::unique_ptr<System> system_;
};

}  // namespace dpc::perfbench

#endif  // DPC_PERFBENCH_DEPLOYMENT_H_
