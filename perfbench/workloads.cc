#include "workloads.h"

#include <filesystem>
#include <unordered_map>

#include "deployment.h"
#include "src/apps/forwarding.h"
#include "src/obs/metrics.h"
#include "src/util/logging.h"
#include "src/util/perf.h"
#include "src/util/rng.h"

namespace dpc::perfbench {

namespace {

// Why each workload exists and what it stresses: README.md. Sizes are set
// so one repetition takes a few host seconds.
WorkloadSpec Fwd1032() {
  WorkloadSpec s;
  s.name = "fwd-1032";
  s.app = App::kForwarding;
  s.topology.num_transit = 8;
  s.topology.stubs_per_transit = 4;
  s.topology.nodes_per_stub = 32;  // 8 + 8*4*32 = 1032 nodes
  s.pairs = 64;
  s.rate_pps = 50;
  s.duration_s = 10;
  s.queries = 10000;
  s.recoveries = 2;
  return s;
}

WorkloadSpec DnsZipf() {
  WorkloadSpec s;
  s.name = "dns-zipf";
  s.app = App::kDns;
  s.requests = 20000;
  s.request_rate = 1000;
  s.setups = 8;
  s.queries = 2000;
  return s;
}

WorkloadSpec FwdWal() {
  WorkloadSpec s;
  s.name = "fwd-wal";
  s.app = App::kForwarding;
  s.pairs = 200;
  s.rate_pps = 10;
  s.setups = 3;
  s.recoveries = 2;
  s.duration_s = 10;
  s.queries = 10000;
  s.wal = true;
  s.checkpoint_interval_s = 2;
  return s;
}

// Seed of the forwarding workloads' communicating pairs (the repository's
// figure benches use the same one).
constexpr uint64_t kTrafficMatrixSeed = 42;

void Fail(RepResult& r, std::string what) {
  ++r.failed;
  if (r.failures.size() < 8) r.failures.push_back(std::move(what));
}

uint64_t Counter(const MetricsSnapshot& m, const std::string& name) {
  auto it = m.counters.find(name);
  return it == m.counters.end() ? 0 : it->second;
}

// The output each injected event must produce, per the application's
// semantics: recv(@D, S, D, payload) for packet(@S, S, D, payload), and
// reply(@H, url, ip, id) for url(@H, url, id), where ip is the address
// record the URL's holder stores.
std::vector<Tuple> ExpectedOutputs(const WorkloadSpec& spec,
                                   const Environment& env, System& system) {
  std::vector<Tuple> expected;
  expected.reserve(env.items.size());
  if (spec.app == App::kForwarding) {
    for (const apps::WorkloadItem& item : env.items) {
      const Tuple& p = item.event;
      NodeId dst = static_cast<NodeId>(p.at(2).AsInt());
      NodeId src = static_cast<NodeId>(p.at(1).AsInt());
      expected.push_back(apps::MakeRecv(dst, src, dst, p.at(3).AsString()));
    }
    return expected;
  }
  const apps::DnsUniverse& u = *env.dns;
  std::unordered_map<std::string, int64_t> address;
  for (size_t k = 0; k < u.urls.size(); ++k) {
    NodeId holder = u.servers[u.url_holders[k]];
    const Table* records = system.DbAt(holder).Find("addressRecord");
    if (records == nullptr) continue;
    records->ForEach([&](const Tuple& t) {
      if (t.at(1).AsString() == u.urls[k]) address[u.urls[k]] = t.at(2).AsInt();
      return true;
    });
  }
  for (const apps::WorkloadItem& item : env.items) {
    const Tuple& req = item.event;
    auto it = address.find(req.at(1).AsString());
    int64_t ip = it == address.end() ? -1 : it->second;
    expected.push_back(Tuple::Make(
        "reply", req.Location(),
        {req.at(1), Value::Int(ip), req.at(2)}));
  }
  return expected;
}

// Every expected output exactly once, at the node its location names, and
// nothing else. A missing or duplicated output fails its inject; a stray or
// misplaced output is one more failure.
void CheckOutputs(const std::vector<Tuple>& expected, const System& system,
                  RepResult& r) {
  std::unordered_map<Tuple, int64_t, TupleHash> want;
  for (const Tuple& t : expected) ++want[t];
  for (NodeId n = 0; n < system.topology().num_nodes(); ++n) {
    for (const OutputRecord& out : system.OutputsAt(n)) {
      auto it = want.find(out.tuple);
      if (it == want.end() || out.tuple.Location() != n) {
        Fail(r, "unexpected output " + out.tuple.ToString() + " at node " +
                    std::to_string(n));
        continue;
      }
      --it->second;
    }
  }
  for (const auto& [tuple, missing] : want) {
    if (missing != 0) {
      Fail(r, (missing > 0 ? "missing output " : "duplicated output ") +
                  tuple.ToString());
    }
  }
}

std::vector<uint8_t> NodeState(const ProvenanceRecorder& rec, NodeId node) {
  ByteWriter w;
  rec.SerializeNodeState(node, w);
  return w.Take();
}

void ResetDir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

}  // namespace

double WorkloadSpec::ScheduleSeconds() const {
  return app == App::kForwarding
             ? duration_s
             : static_cast<double>(requests) / request_rate;
}

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kAll = {Fwd1032(), DnsZipf(),
                                                 FwdWal()};
  return kAll;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& s : AllWorkloads()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const Topology& Environment::graph() const {
  return transit_stub != nullptr ? transit_stub->graph : dns->graph;
}

Environment MakeEnvironment(const WorkloadSpec& spec, uint64_t seed) {
  Environment env;
  if (spec.app == App::kForwarding) {
    env.transit_stub =
        std::make_unique<TransitStubTopology>(MakeTransitStub(spec.topology));
    // The traffic matrix is part of the workload, like the topology: the
    // pairs come from a fixed seed, so path-length-dependent metrics
    // (bytes per event, simulated query latency) do not swing with --seed.
    // The seed draws each pair's send offset, the payload contents and (in
    // RunRep) the query targets. Otherwise as apps::MakeForwardingWorkload.
    Rng pair_rng(kTrafficMatrixSeed);
    env.pairs = apps::PickCommunicatingPairs(*env.transit_stub, spec.pairs,
                                             pair_rng);
    Rng rng(seed);
    uint64_t seq = seed << 32;
    for (auto [s, d] : env.pairs) {
      double offset = rng.NextDouble() / spec.rate_pps;
      for (double t = offset; t < spec.duration_s; t += 1.0 / spec.rate_pps) {
        env.items.push_back(apps::WorkloadItem{
            apps::MakePacket(s, s, d,
                             apps::MakePayload(apps::kDefaultPayloadLen, seq)),
            t});
        ++seq;
      }
    }
  } else {
    env.dns =
        std::make_unique<apps::DnsUniverse>(apps::MakeDnsUniverse(spec.dns));
    env.items = apps::MakeDnsWorkload(*env.dns, spec.requests,
                                      spec.request_rate, spec.dns.zipf_theta,
                                      seed);
  }
  return env;
}

const char* PhaseName(int phase) {
  switch (phase) {
    case kSetupPhase: return "setup";
    case kWindowPhase: return "window";
    case kQueryPhase: return "query";
    case kDurabilityPhase: return "durability";
  }
  return "?";
}

namespace {

// One deployment set up to the point of its first measured inject.
struct Prepared {
  std::unique_ptr<TransitStubTopology> transit_stub;
  std::unique_ptr<apps::DnsUniverse> dns;
  std::unique_ptr<Program> program;
  std::unique_ptr<Deployment> dep;  // destroyed first: it points at the rest
  double end = 0;                   // simulated end of the input schedule

  const Topology& graph() const {
    return transit_stub != nullptr ? transit_stub->graph : dns->graph;
  }
};

// Everything before the first measured inject: topology and routes (rebuilt
// here; the inputs in `env` were drawn on an identical copy), program parse,
// deployment, slow-state install, the setup drain, and scheduling the
// inputs. Each step's host time goes into `split`.
Prepared SetUp(const WorkloadSpec& spec, const Environment& env,
               SpanClock* clock, const std::string& wal_dir,
               SetupSplit& split, std::map<std::string, uint64_t>& counts) {
  Prepared p;
  Clock::time_point t = Clock::now();
  if (spec.app == App::kForwarding) {
    p.transit_stub =
        std::make_unique<TransitStubTopology>(MakeTransitStub(spec.topology));
  } else {
    p.dns =
        std::make_unique<apps::DnsUniverse>(apps::MakeDnsUniverse(spec.dns));
  }
  split.topology_s = SecondsSince(t);

  t = Clock::now();
  Result<Program> program = spec.app == App::kForwarding
                                ? apps::MakeForwardingProgram()
                                : apps::MakeDnsProgram();
  DPC_CHECK(program.ok()) << program.status().ToString();
  p.program = std::make_unique<Program>(std::move(program).value());
  split.program_s = SecondsSince(t);

  t = Clock::now();
  DeploymentOptions options;
  if (spec.wal) options.wal_dir = wal_dir;
  options.clock = clock;
  auto created = Deployment::Create(*p.program, &p.graph(), options);
  DPC_CHECK(created.ok()) << created.status().ToString();
  p.dep = std::move(created).value();
  Deployment* dep = p.dep.get();
  System& sys = dep->system();
  split.deploy_s = SecondsSince(t);

  t = Clock::now();
  if (spec.app == App::kForwarding) {
    for (auto [s, d] : env.pairs) {
      Status st = apps::InstallRoutesForPair(sys, p.graph(), s, d);
      DPC_CHECK(st.ok()) << st.ToString();
    }
  } else {
    Status st = apps::InstallDnsState(sys, *p.dns);
    DPC_CHECK(st.ok()) << st.ToString();
  }
  split.install_s = SecondsSince(t);

  t = Clock::now();
  sys.Run();
  split.drain_s = SecondsSince(t);
  counts["nodes"] = static_cast<uint64_t>(p.graph().num_nodes());
  counts["setup.queue_events"] = dep->queue().dispatched();
  counts["setup.messages"] = dep->network().total_messages();
  // Each §5.5 sig is handled at its origin and at every other node.
  counts["setup.control_signals"] = sys.stats().control_signals;
  dep->network().ResetAccounting();

  // Checkpoints first, then injects: the same-instant order RunExperiment
  // uses.
  t = Clock::now();
  const double t0 = dep->queue().now();
  p.end = t0 + spec.ScheduleSeconds();
  if (dep->wal() != nullptr && spec.checkpoint_interval_s > 0) {
    for (double c = spec.checkpoint_interval_s; c < spec.ScheduleSeconds();
         c += spec.checkpoint_interval_s) {
      dep->queue().ScheduleAt(t0 + c, [dep, clock]() {
        Span span(clock, Layer::kCheckpoint);
        Status st = dep->wal()->Checkpoint();
        DPC_CHECK(st.ok()) << st.ToString();
      });
    }
  }
  for (const apps::WorkloadItem& item : env.items) {
    Status st = sys.ScheduleInject(item.event, t0 + item.time_s);
    DPC_CHECK(st.ok()) << st.ToString();
  }
  split.schedule_s = SecondsSince(t);
  return p;
}

}  // namespace

RepResult RunRep(const WorkloadSpec& spec, const Environment& env,
                 uint64_t seed, SpanClock* clock, const std::string& workdir) {
  RepResult r;
  r.traced = clock != nullptr;
  const std::string wal_dir = workdir + "/wal";

  // --- setup, repeated: only the last deployment runs the workload -------
  Prepared p;
  for (size_t k = 0; k < spec.setups; ++k) {
    p.dep.reset();
    ResetDir(wal_dir);
    if (clock != nullptr) clock->Reset();
    p = SetUp(spec, env, clock, wal_dir, r.split, r.counts);
    r.setup_s.push_back(r.split.Total());
  }
  if (clock != nullptr) {
    r.phases[kSetupPhase] = {r.split.Total(), clock->totals()};
  }
  Deployment* dep = p.dep.get();
  System& sys = dep->system();
  const Program& program = *p.program;
  const Topology& graph = p.graph();
  const uint64_t setup_events = r.counts["setup.queue_events"];
  const double end = p.end;
  Clock::time_point t;

  // --- window: first measured inject until the queue drains --------------
  const SystemStats stats0 = sys.stats();
  const IdentityCounters id0 = identity_counters();
  const MetricsSnapshot m0 = GlobalMetrics().Snapshot();
  if (clock != nullptr) clock->Reset();
  t = Clock::now();
  sys.RunUntil(end);
  sys.Run();
  r.window_s = SecondsSince(t);
  if (clock != nullptr) {
    r.phases[kWindowPhase] = {r.window_s, clock->totals()};
  }
  const SystemStats stats1 = sys.stats();
  const IdentityCounters id = identity_counters() - id0;
  const MetricsSnapshot m = GlobalMetrics().Snapshot().Delta(m0);
  const uint64_t injected = stats1.events_injected - stats0.events_injected;
  r.counts["injected"] = injected;
  r.counts["outputs"] = stats1.outputs - stats0.outputs;
  r.counts["rule_firings"] = stats1.rule_firings - stats0.rule_firings;
  r.counts["window.queue_events"] = dep->queue().dispatched() - setup_events;
  r.counts["window.messages"] = dep->network().total_messages();
  r.counts["window.bytes"] = dep->network().total_bytes_sent();
  r.counts["storage_bytes"] = dep->TotalStorageBytes();
  r.counts["identity.sha1"] = id.sha1_invocations;
  r.counts["identity.serialized_bytes"] = id.tuple_bytes_serialized;
  r.counts["identity.vid_hits"] = id.vid_cache_hits;
  r.counts["identity.vid_misses"] = id.vid_cache_misses;
  auto batches = m.histograms.find("system.batch_size");
  if (batches != m.histograms.end()) {
    r.counts["batches"] = batches->second.count;
    r.counts["batched_events"] =
        static_cast<uint64_t>(batches->second.sum + 0.5);
  } else {
    r.counts["batches"] = 0;
    r.counts["batched_events"] = 0;
  }
  r.counts["wal.records"] = Counter(m, "wal.records");
  r.counts["wal.bytes"] = Counter(m, "wal.bytes");
  r.counts["wal.checkpoints"] = Counter(m, "wal.checkpoints");
  r.counts["wal.checkpoint_bytes"] = Counter(m, "wal.checkpoint_bytes");

  r.attempted += env.items.size();
  if (injected != env.items.size()) {
    Fail(r, "injected " + std::to_string(injected) + " of " +
                std::to_string(env.items.size()) + " events");
  }
  CheckOutputs(ExpectedOutputs(spec, env, sys), sys, r);

  // --- query: closed loop, one client, seeded random outputs -------------
  const std::vector<OutputRecord> outputs = sys.AllOutputs();
  std::vector<size_t> picks;
  if (!outputs.empty()) {
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x51);
    for (size_t q = 0; q < spec.queries; ++q) {
      picks.push_back(static_cast<size_t>(rng.NextBelow(outputs.size())));
    }
  }
  // Each answer is checked and dropped as soon as its call is timed, so
  // answers do not pile up in the process's peak RSS. The phase's wall time
  // is the sum of the timed calls; the checks between them are not in it.
  std::unique_ptr<ProvenanceQuerier> querier = dep->MakeQuerier();
  uint64_t entries = 0, hops = 0, trees = 0, sim_us = 0;
  r.attempted += spec.queries;
  if (picks.size() != spec.queries) Fail(r, "no outputs to query");
  r.query_us.reserve(picks.size());
  r.query_sim_ms.reserve(picks.size());
  if (clock != nullptr) clock->Reset();
  double query_wall_s = 0;
  for (size_t idx : picks) {
    const OutputRecord& out = outputs[idx];
    Clock::time_point q0 = Clock::now();
    Result<QueryResult> a = [&] {
      Span span(clock, Layer::kQuery);
      return querier->Query(out.tuple, &out.meta.evid);
    }();
    double dt = SecondsSince(q0);
    query_wall_s += dt;
    r.query_us.push_back(dt * 1e6);
    if (!a.ok()) {
      Fail(r, "query " + out.tuple.ToString() + ": " + a.status().ToString());
      continue;
    }
    entries += a->entries_touched;
    hops += static_cast<uint64_t>(a->hops);
    trees += a->trees.size();
    sim_us += static_cast<uint64_t>(a->latency_s * 1e6 + 0.5);
    r.query_sim_ms.push_back(a->latency_s * 1e3);
    // Theorem 5: the derivations of `out` generated by exactly this event.
    bool good = !a->trees.empty();
    for (const ProvTree& tree : a->trees) {
      good = good && tree.Output() == out.tuple &&
             tree.event().Vid() == out.meta.evid;
    }
    if (!good) {
      Fail(r, "query " + out.tuple.ToString() + ": " +
                  std::to_string(a->trees.size()) +
                  " tree(s), not rooted at the output with its EVID");
    }
  }
  if (clock != nullptr) {
    r.phases[kQueryPhase] = {query_wall_s, clock->totals()};
  }
  r.counts["query.count"] = picks.size();
  r.counts["query.entries"] = entries;
  r.counts["query.hops"] = hops;
  r.counts["query.trees"] = trees;
  r.counts["query.sim_us"] = sim_us;

  // --- durability: restore a fresh deployment from disk ------------------
  // With a WAL the files already hold checkpoints plus the log tail;
  // without one the live state is checkpointed once first.
  // The phase's wall time is the sum of the timed calls; the state
  // comparisons between them are not in it.
  std::vector<std::vector<uint8_t>> live;
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    live.push_back(NodeState(dep->advanced(), n));
  }
  const MetricsSnapshot m2 = GlobalMetrics().Snapshot();
  if (clock != nullptr) clock->Reset();
  double durability_wall_s = 0;
  if (!spec.wal) {
    t = Clock::now();
    {
      Span span(clock, Layer::kCheckpoint);
      Status st = dep->CheckpointTo(wal_dir);
      DPC_CHECK(st.ok()) << st.ToString();
    }
    durability_wall_s += SecondsSince(t);
  }
  // Each recovery restores the same files into a fresh deployment, whose
  // state must equal the live one node for node.
  WalRecoveryStats recovery;
  for (size_t k = 0; k < spec.recoveries; ++k) {
    std::unique_ptr<Deployment> fresh;
    t = Clock::now();
    {
      Span span(clock, Layer::kRecover);
      DeploymentOptions fresh_options;
      fresh_options.wal_dir = wal_dir;
      auto made = Deployment::Create(program, &graph, fresh_options);
      DPC_CHECK(made.ok()) << made.status().ToString();
      fresh = std::move(made).value();
      auto stats = fresh->wal()->Recover();
      DPC_CHECK(stats.ok()) << stats.status().ToString();
      recovery = *stats;
    }
    double dt = SecondsSince(t);
    durability_wall_s += dt;
    r.recover_s.push_back(dt);
    for (NodeId n = 0; n < graph.num_nodes(); ++n) {
      ++r.attempted;
      if (live[n] != NodeState(fresh->advanced(), n)) {
        Fail(r, "recovered node " + std::to_string(n) +
                    " state differs from the live node's");
      }
    }
  }
  if (clock != nullptr) {
    r.phases[kDurabilityPhase] = {durability_wall_s, clock->totals()};
  }
  const MetricsSnapshot md = GlobalMetrics().Snapshot().Delta(m2);
  r.counts["wal.checkpoints"] += Counter(md, "wal.checkpoints");
  r.counts["wal.checkpoint_bytes"] += Counter(md, "wal.checkpoint_bytes");
  r.counts["wal.records_replayed"] = recovery.records_replayed;
  r.counts["recover.nodes_with_checkpoint"] =
      static_cast<uint64_t>(recovery.nodes_with_checkpoint);
  p.dep.reset();
  std::filesystem::remove_all(wal_dir);
  return r;
}

apps::ExperimentResult RunReference(const WorkloadSpec& spec,
                                    const Environment& env,
                                    const std::string& workdir) {
  apps::ExperimentConfig config;
  config.duration_s = spec.ScheduleSeconds();
  config.snapshot_interval_s = config.duration_s;
  const std::string wal_dir = workdir + "/reference-wal";
  if (spec.wal) {
    ResetDir(wal_dir);
    config.wal_dir = wal_dir;
    config.wal_checkpoint_interval_s = spec.checkpoint_interval_s;
  }
  apps::ExperimentResult result;
  if (spec.app == App::kForwarding) {
    apps::ForwardingWorkload w{env.pairs, env.items};
    result = apps::RunForwarding(apps::Scheme::kAdvanced, *env.transit_stub,
                                 w, config);
  } else {
    result = apps::RunDns(apps::Scheme::kAdvanced, *env.dns, env.items, config);
  }
  if (spec.wal) std::filesystem::remove_all(wal_dir);
  return result;
}

}  // namespace dpc::perfbench
