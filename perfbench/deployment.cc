#include "deployment.h"

#include "src/core/equivalence_keys.h"
#include "src/ndlog/functions.h"

namespace dpc::perfbench {

Deployment::Deployment(const Program& program, const Topology* topology)
    : program_(program), topology_(topology), network_(topology, &queue_) {}

Result<std::unique_ptr<Deployment>> Deployment::Create(
    const Program& program, const Topology* topology,
    DeploymentOptions options) {
  std::unique_ptr<Deployment> d(new Deployment(program, topology));
  int n = topology->num_nodes();
  DPC_ASSIGN_OR_RETURN(EquivalenceKeys keys,
                       ComputeEquivalenceKeys(d->program_));
  d->advanced_ = std::make_unique<AdvancedRecorder>(
      &d->program_, std::move(keys), n, AdvancedOptions{});

  ProvenanceRecorder* recorder = d->advanced_.get();
  if (options.clock != nullptr) {
    d->timed_scheme_ = std::make_unique<TimedRecorder>(
        recorder, options.clock, Layer::kRecorder);
    recorder = d->timed_scheme_.get();
  }
  if (!options.wal_dir.empty()) {
    WalOptions wal;
    wal.dir = options.wal_dir;
    DPC_ASSIGN_OR_RETURN(d->wal_,
                         WalRecorder::Attach(recorder, &d->program_, n, wal));
    recorder = d->wal_.get();
    if (options.clock != nullptr) {
      d->timed_wal_ =
          std::make_unique<TimedRecorder>(recorder, options.clock, Layer::kWal);
      recorder = d->timed_wal_.get();
    }
  }

  MessageChannel* channel = &d->network_;
  if (options.clock != nullptr) {
    d->timed_channel_ = std::make_unique<TimedChannel>(channel, options.clock);
    channel = d->timed_channel_.get();
  }
  d->system_ = std::make_unique<System>(&d->program_, topology, channel,
                                        &d->queue_, DefaultFunctions(),
                                        recorder);
  d->system_->SetBatchEval(true);
  return d;
}

std::unique_ptr<ProvenanceQuerier> Deployment::MakeQuerier() const {
  return std::make_unique<AdvancedQuerier>(advanced_.get(), &program_,
                                           &system_->functions(), topology_);
}

size_t Deployment::TotalStorageBytes() const {
  return advanced_->TotalStorage(topology_->num_nodes()).Total();
}

Status Deployment::CheckpointTo(const std::string& dir) {
  WalOptions options;
  options.dir = dir;
  DPC_ASSIGN_OR_RETURN(std::unique_ptr<WalRecorder> snapshot,
                       WalRecorder::Attach(advanced_.get(), &program_,
                                           topology_->num_nodes(), options));
  return snapshot->Checkpoint();
}

}  // namespace dpc::perfbench
