// The benchmark's workloads and one repetition of each.
//
// A repetition builds the deployment from scratch (setup), replays the
// workload's fixed open-loop schedule in simulated time as fast as the host
// allows (window), runs a closed loop of provenance queries with one client
// (query), and restores a fresh deployment from disk (durability). Every
// phase is timed; every output is checked.
#ifndef DPC_PERFBENCH_WORKLOADS_H_
#define DPC_PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "layer_trace.h"
#include "src/apps/dns.h"
#include "src/apps/experiments.h"
#include "src/net/transit_stub.h"

namespace dpc::perfbench {

enum class App { kForwarding, kDns };

struct WorkloadSpec {
  std::string name;
  App app = App::kForwarding;
  // Forwarding: topology and traffic (pairs x rate_pps x duration_s).
  TransitStubParams topology;
  size_t pairs = 0;
  double rate_pps = 0;
  double duration_s = 0;
  // DNS: universe and Zipf request stream.
  apps::DnsParams dns;
  size_t requests = 0;
  double request_rate = 0;
  // Provenance queries per repetition, on seeded random outputs.
  size_t queries = 0;
  // Per-node WALs with a checkpoint every checkpoint_interval_s simulated
  // seconds. Without a WAL the durability phase checkpoints the final state
  // once and restores from that.
  bool wal = false;
  double checkpoint_interval_s = 0;
  // Set-ups per repetition (the last one runs the workload) and fresh
  // deployments restored from disk per repetition: more samples of the
  // short phases.
  size_t setups = 1;
  size_t recoveries = 3;

  // Simulated length of the input schedule.
  double ScheduleSeconds() const;
};

const std::vector<WorkloadSpec>& AllWorkloads();
const WorkloadSpec* FindWorkload(const std::string& name);

// What the program is run on: the generated topology and the seeded inputs.
struct Environment {
  std::unique_ptr<TransitStubTopology> transit_stub;  // forwarding
  std::unique_ptr<apps::DnsUniverse> dns;             // DNS
  std::vector<std::pair<NodeId, NodeId>> pairs;       // forwarding
  std::vector<apps::WorkloadItem> items;

  const Topology& graph() const;
};

// Generates the topology (fixed per workload) and the inputs (from `seed`).
Environment MakeEnvironment(const WorkloadSpec& spec, uint64_t seed);

enum Phase { kSetupPhase, kWindowPhase, kQueryPhase, kDurabilityPhase,
             kNumPhases };
const char* PhaseName(int phase);

struct PhaseTrace {
  double wall_s = 0;
  LayerTotals totals;
};

// Host seconds of each set-up step.
struct SetupSplit {
  double topology_s = 0, program_s = 0, deploy_s = 0, install_s = 0,
         drain_s = 0, schedule_s = 0;

  double Total() const {
    return topology_s + program_s + deploy_s + install_s + drain_s +
           schedule_s;
  }
};

struct RepResult {
  bool traced = false;
  // Host seconds.
  std::vector<double> setup_s;  // one per set-up
  SetupSplit split;             // of the set-up that ran the workload
  double window_s = 0;
  std::vector<double> recover_s;  // one per recovery
  std::vector<double> query_us;
  std::vector<double> query_sim_ms;
  // Deterministic counts: identical for every repetition of one seed.
  std::map<std::string, uint64_t> counts;
  // Correctness: operations are injects, queries and per-node recovery
  // comparisons.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the log
  // Traced repetitions only.
  std::array<PhaseTrace, kNumPhases> phases;
};

// Runs one repetition. `clock` non-null runs the decorated deployment.
// `workdir` is a scratch directory for WAL and checkpoint files.
RepResult RunRep(const WorkloadSpec& spec, const Environment& env,
                 uint64_t seed, SpanClock* clock, const std::string& workdir);

// The same inputs through apps::RunForwarding / apps::RunDns, the runners
// behind the paper's figures.
apps::ExperimentResult RunReference(const WorkloadSpec& spec,
                                    const Environment& env,
                                    const std::string& workdir);

}  // namespace dpc::perfbench

#endif  // DPC_PERFBENCH_WORKLOADS_H_
