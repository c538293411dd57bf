// Kill/restart fault drill: a deployment journaling through WalRecorder
// is destroyed mid-run (every WAL append was already flushed, so this is
// the on-disk state a kill -9 leaves behind) and rebuilt from disk into a
// fresh deployment. The recovered per-node tables must be byte-identical
// to an oracle run that was never interrupted — for all four compressing
// schemes, under 20% loss with the reliable transport, with and without a
// mid-run checkpoint — and recovery must not double-count a single
// metric or identity counter.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <cctype>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/forwarding.h"
#include "src/apps/testbed.h"
#include "src/core/query.h"
#include "src/core/wal.h"
#include "src/obs/metrics.h"
#include "src/util/perf.h"
#include "src/util/rng.h"

namespace dpc {
namespace {

using apps::Scheme;
using apps::Testbed;
using apps::TestbedOptions;

struct TempDir {
  std::string path;

  explicit TempDir(const std::string& tag) {
    std::string tmpl = ::testing::TempDir() + "dpc_" + tag + "_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* got = mkdtemp(buf.data());
    EXPECT_NE(got, nullptr);
    if (got != nullptr) path = got;
  }
  ~TempDir() {
    if (!path.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  }
};

Topology MakeLineTopo(int n) {
  Topology topo;
  topo.AddNodes(n);
  for (int i = 0; i + 1 < n; ++i) {
    EXPECT_TRUE(topo.AddLink(i, i + 1, LinkProps{0.001, 1e9}).ok());
  }
  topo.ComputeRoutes();
  return topo;
}

// Serializes every node's recorder state into one blob: the byte-level
// fingerprint of a deployment's provenance tables.
std::string StateFingerprint(Testbed& bed) {
  std::ostringstream out;
  for (NodeId n = 0; n < bed.topology().num_nodes(); ++n) {
    ByteWriter w;
    bed.recorder().SerializeNodeState(n, w);
    out.write(reinterpret_cast<const char*>(w.bytes().data()),
              static_cast<std::streamsize>(w.size()));
    out << "|";
  }
  return out.str();
}

std::string QueryAnswersFor(Testbed& bed,
                            const std::vector<OutputRecord>& outputs) {
  auto querier = bed.MakeQuerier();
  EXPECT_NE(querier, nullptr);
  std::ostringstream answers;
  for (const OutputRecord& out : outputs) {
    // ExSPAN/Basic leave meta.evid zeroed; only filter when it is stamped.
    Vid evid = out.meta.evid;
    auto res = querier->Query(out.tuple, evid.IsZero() ? nullptr : &evid);
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    if (!res.ok()) continue;
    for (const ProvTree& tree : res->trees) {
      answers << tree.ToString() << "\n";
    }
  }
  return answers.str();
}

// Builds a deployment, installs routes both ways, and schedules the
// standard two-way packet workload. rounds == 0 builds an untouched
// deployment (no routes, no injects) — the shape a recovery target needs,
// since any pre-recovery mutation would be journaled and restored on top.
std::unique_ptr<Testbed> MakeDeployment(Scheme scheme, const Topology& topo,
                                        TestbedOptions options,
                                        int rounds = 8) {
  auto program = apps::MakeForwardingProgram();
  EXPECT_TRUE(program.ok());
  auto bed = Testbed::Create(*program, &topo, scheme, std::move(options));
  EXPECT_TRUE(bed.ok()) << bed.status().ToString();
  if (rounds == 0) return std::move(bed).value();
  int last = topo.num_nodes() - 1;
  EXPECT_TRUE(
      apps::InstallRoutesForPair((*bed)->system(), topo, 0, last).ok());
  EXPECT_TRUE(
      apps::InstallRoutesForPair((*bed)->system(), topo, last, 0).ok());
  double t = 0;
  for (int round = 0; round < rounds; ++round) {
    EXPECT_TRUE((*bed)
                    ->system()
                    .ScheduleInject(apps::MakePacket(
                                        0, 0, last,
                                        apps::MakePayload(32, round)),
                                    t += 0.004)
                    .ok());
    EXPECT_TRUE((*bed)
                    ->system()
                    .ScheduleInject(apps::MakePacket(
                                        last, last, 0,
                                        apps::MakePayload(32, 100 + round)),
                                    t += 0.004)
                    .ok());
  }
  return std::move(bed).value();
}

TestbedOptions LossyReliableOptions(const std::string& wal_dir) {
  TestbedOptions options;
  options.loss_rate = 0.2;
  options.loss_seed = 91;
  options.reliable_transport = true;
  options.wal_dir = wal_dir;
  return options;
}

// Parameterized over the four schemes with node-state durability.
class RestartDrillTest : public ::testing::TestWithParam<Scheme> {};

// The core drill: a lossy reliable run is stopped at an arbitrary
// mid-run instant and its deployment destroyed. The WAL on disk must
// rebuild tables byte-identical to an identically configured oracle run
// stopped at the same instant (the runtime is deterministic, so the
// oracle reproduces the victim's pre-crash execution exactly).
TEST_P(RestartDrillTest, MidRunCrashRecoversByteIdenticalTables) {
  Scheme scheme = GetParam();
  Topology topo = MakeLineTopo(5);
  TempDir dir("drill");
  const double crash_at = 0.025;  // mid-workload: injects run to 0.064

  // Victim: journaling, stopped mid-run, destroyed without ceremony.
  {
    auto victim = MakeDeployment(scheme, topo, LossyReliableOptions(dir.path));
    ASSERT_NE(victim->wal(), nullptr);
    victim->system().RunUntil(crash_at);
    ASSERT_GT(victim->wal()->records_logged(), 0u);
  }

  // Oracle: identical config (journaling into a scratch dir so the WAL
  // hook sequence matches exactly), stopped at the same instant, alive.
  TempDir oracle_dir("drill_oracle");
  auto oracle =
      MakeDeployment(scheme, topo, LossyReliableOptions(oracle_dir.path));
  oracle->system().RunUntil(crash_at);

  // Recovered: a fresh deployment over the victim's WAL directory.
  auto recovered =
      MakeDeployment(scheme, topo, LossyReliableOptions(dir.path), 0);
  auto stats = recovered->wal()->Recover();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->records_replayed, 0u);
  EXPECT_EQ(stats->corrupt_frames, 0u);

  EXPECT_EQ(StateFingerprint(*oracle), StateFingerprint(*recovered))
      << apps::SchemeName(scheme)
      << ": recovered tables differ from the uninterrupted oracle";

  // Distributed queries over the recovered tables answer exactly like
  // the oracle for every pre-crash output.
  std::vector<OutputRecord> outputs = oracle->system().AllOutputs();
  if (!outputs.empty()) {
    EXPECT_EQ(QueryAnswersFor(*oracle, outputs),
              QueryAnswersFor(*recovered, outputs));
  }
}

// Same drill with a checkpoint cut mid-run: recovery restores the
// snapshot and replays only the tail past the watermark.
TEST_P(RestartDrillTest, CheckpointPlusTailRecoversByteIdenticalTables) {
  Scheme scheme = GetParam();
  Topology topo = MakeLineTopo(5);
  TempDir dir("drillckpt");

  {
    auto victim = MakeDeployment(scheme, topo, LossyReliableOptions(dir.path));
    victim->system().RunUntil(0.02);
    ASSERT_TRUE(victim->wal()->Checkpoint().ok());
    uint64_t at_checkpoint = victim->wal()->records_logged();
    victim->system().RunUntil(0.05);
    ASSERT_GT(victim->wal()->records_logged(), at_checkpoint)
        << "no tail past the checkpoint; the drill is vacuous";
  }

  TempDir oracle_dir("drillckpt_oracle");
  auto oracle =
      MakeDeployment(scheme, topo, LossyReliableOptions(oracle_dir.path));
  oracle->system().RunUntil(0.05);

  auto recovered =
      MakeDeployment(scheme, topo, LossyReliableOptions(dir.path), 0);
  auto stats = recovered->wal()->Recover();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->nodes_with_checkpoint, topo.num_nodes());
  EXPECT_GT(stats->records_replayed, 0u);

  EXPECT_EQ(StateFingerprint(*oracle), StateFingerprint(*recovered))
      << apps::SchemeName(scheme);
}

// A drained run (no in-flight traffic at the cut) recovers and then
// continues: the resumed deployment re-declares its slow state (the
// recorder dedups), processes the rest of the workload, and ends with
// tables and query answers byte-identical to a run that never stopped.
TEST_P(RestartDrillTest, RecoveredDeploymentContinuesTheWorkload) {
  Scheme scheme = GetParam();
  Topology topo = MakeLineTopo(4);
  TempDir dir("drillcont");
  int last = topo.num_nodes() - 1;
  auto program = apps::MakeForwardingProgram();
  ASSERT_TRUE(program.ok());

  auto inject_round = [&](Testbed& bed, int round, double t) {
    ASSERT_TRUE(bed.system()
                    .ScheduleInject(apps::MakePacket(
                                        0, 0, last,
                                        apps::MakePayload(32, round)),
                                    t)
                    .ok());
  };

  // Uninterrupted oracle: all 6 rounds in one life.
  TempDir oracle_dir("drillcont_oracle");
  TestbedOptions oracle_options;
  oracle_options.wal_dir = oracle_dir.path;
  auto oracle = Testbed::Create(*program, &topo, scheme, oracle_options);
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(
      apps::InstallRoutesForPair((*oracle)->system(), topo, 0, last).ok());
  for (int round = 0; round < 6; ++round) {
    inject_round(**oracle, round, 0.004 * (round + 1));
  }
  (*oracle)->system().Run();

  // Victim: rounds 0-2, drained, then destroyed.
  {
    TestbedOptions options;
    options.wal_dir = dir.path;
    auto victim = Testbed::Create(*program, &topo, scheme, options);
    ASSERT_TRUE(victim.ok());
    ASSERT_TRUE(
        apps::InstallRoutesForPair((*victim)->system(), topo, 0, last).ok());
    for (int round = 0; round < 3; ++round) {
      inject_round(**victim, round, 0.004 * (round + 1));
    }
    (*victim)->system().Run();
  }

  // Restart: recover, re-declare routes, run rounds 3-5.
  TestbedOptions options;
  options.wal_dir = dir.path;
  auto resumed = Testbed::Create(*program, &topo, scheme, options);
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE((*resumed)->wal()->Recover().ok());
  ASSERT_TRUE(
      apps::InstallRoutesForPair((*resumed)->system(), topo, 0, last).ok());
  for (int round = 3; round < 6; ++round) {
    inject_round(**resumed, round, 0.004 * (round + 1));
  }
  (*resumed)->system().Run();

  EXPECT_EQ(StateFingerprint(**oracle), StateFingerprint(**resumed))
      << apps::SchemeName(scheme);
  std::vector<OutputRecord> outputs = (*oracle)->system().AllOutputs();
  ASSERT_GT(outputs.size(), 0u);
  EXPECT_EQ(QueryAnswersFor(**oracle, outputs),
            QueryAnswersFor(**resumed, outputs));
}

// Replay must be accounting-neutral: rebuilding tables bumps no
// system.*/recorder.*/transport metrics and no identity counters — only
// the wal.* counters describing the recovery itself move.
TEST_P(RestartDrillTest, RecoveryDoesNotDoubleCountAccounting) {
  Scheme scheme = GetParam();
  Topology topo = MakeLineTopo(4);
  TempDir dir("drillacct");

  {
    auto victim = MakeDeployment(scheme, topo, LossyReliableOptions(dir.path));
    victim->system().Run();
  }

  auto recovered =
      MakeDeployment(scheme, topo, LossyReliableOptions(dir.path), 0);
  MetricsSnapshot before = GlobalMetrics().Snapshot();
  IdentityCounters identity_before = identity_counters();
  auto stats = recovered->wal()->Recover();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_GT(stats->records_replayed, 0u);
  MetricsSnapshot delta = GlobalMetrics().Snapshot().Delta(before);
  IdentityCounters identity_delta = identity_counters() - identity_before;

  for (const auto& [name, value] : delta.counters) {
    if (value == 0) continue;
    EXPECT_EQ(name.rfind("wal.", 0), 0u)
        << "recovery bumped non-WAL counter " << name << " by " << value;
  }
  for (const auto& [name, hist] : delta.histograms) {
    EXPECT_EQ(hist.count, 0u)
        << "recovery observed into histogram " << name;
  }
  EXPECT_EQ(delta.counters["wal.records_replayed"], stats->records_replayed);

  EXPECT_EQ(identity_delta.sha1_invocations, 0u);
  EXPECT_EQ(identity_delta.tuple_bytes_serialized, 0u);
  EXPECT_EQ(identity_delta.vid_cache_hits, 0u);
  EXPECT_EQ(identity_delta.vid_cache_misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, RestartDrillTest,
                         ::testing::Values(Scheme::kExspan, Scheme::kBasic,
                                           Scheme::kAdvanced,
                                           Scheme::kAdvancedInterClass),
                         [](const auto& info) {
                           std::string name = apps::SchemeName(info.param);
                           std::string out;
                           for (char c : name) {
                             if (std::isalnum(static_cast<unsigned char>(c))) {
                               out += c;
                             }
                           }
                           return out;
                         });

// A sharded victim writes the same WAL as an unsharded one (hooks run on
// the owning shard in deterministic order per node), so recovery from a
// sharded run's disk matches the single-queue oracle.
TEST(RestartDrillShardTest, ShardedVictimRecoversAgainstUnshardedOracle) {
  Topology topo = MakeLineTopo(8);
  TempDir dir("drillshard");

  {
    TestbedOptions options;
    options.wal_dir = dir.path;
    options.shards = 4;
    auto victim = MakeDeployment(Scheme::kAdvanced, topo, options);
    ASSERT_EQ(victim->shards(), 4);
    victim->system().Run();
  }

  TempDir oracle_dir("drillshard_oracle");
  TestbedOptions oracle_options;
  oracle_options.wal_dir = oracle_dir.path;
  auto oracle = MakeDeployment(Scheme::kAdvanced, topo, oracle_options);
  oracle->system().Run();

  TestbedOptions options;
  options.wal_dir = dir.path;
  auto recovered = MakeDeployment(Scheme::kAdvanced, topo, options, 0);
  ASSERT_TRUE(recovered->wal()->Recover().ok());
  EXPECT_EQ(StateFingerprint(*oracle), StateFingerprint(*recovered));
}

// The reference scheme has no node-state serialization; asking for a WAL
// must fail loudly at deployment construction, not at checkpoint time.
TEST(RestartDrillConfigTest, ReferenceSchemeRejectsWal) {
  Topology topo = MakeLineTopo(3);
  TempDir dir("drillref");
  auto program = apps::MakeForwardingProgram();
  ASSERT_TRUE(program.ok());
  TestbedOptions options;
  options.wal_dir = dir.path;
  auto bed = Testbed::Create(*program, &topo, Scheme::kReference, options);
  EXPECT_FALSE(bed.ok());
}

// A corrupt WAL tail (torn final frame) is survivable: recovery replays
// the intact prefix, reports the corruption, and the tables match an
// oracle that only saw the intact records.
TEST(RestartDrillCorruptionTest, TornTailRecoversThePrefix) {
  Topology topo = MakeLineTopo(4);
  TempDir dir("drilltorn");

  {
    TestbedOptions options;
    options.wal_dir = dir.path;
    auto victim = MakeDeployment(Scheme::kBasic, topo, options);
    victim->system().Run();
  }

  // Tear the last node's log mid-frame.
  std::string victim_path = WalPath(dir.path, topo.num_nodes() - 1);
  auto size = std::filesystem::file_size(victim_path);
  ASSERT_GT(size, 8u);
  std::filesystem::resize_file(victim_path, size - 3);

  TestbedOptions options;
  options.wal_dir = dir.path;
  auto recovered = MakeDeployment(Scheme::kBasic, topo, options, 0);
  MetricsSnapshot before = GlobalMetrics().Snapshot();
  auto stats = recovered->wal()->Recover();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->corrupt_frames, 1u);
  EXPECT_GT(stats->records_replayed, 0u);
  MetricsSnapshot delta = GlobalMetrics().Snapshot().Delta(before);
  EXPECT_EQ(delta.counters["wal.corrupt_frames"], 1u);
}

// The second-crash hazard: a restarted deployment must truncate a torn
// tail before appending, or everything it journals after the restart sits
// behind the corrupt frame — reachable by nothing — and a second crash
// silently loses acknowledged-durable records.
TEST(RestartDrillCorruptionTest, AppendsAfterATornTailStayRecoverable) {
  Topology topo = MakeLineTopo(4);
  TempDir dir("drilltorn2");
  int last = topo.num_nodes() - 1;
  auto program = apps::MakeForwardingProgram();
  ASSERT_TRUE(program.ok());

  // First life: a full run, then a mid-frame tear of one node's log —
  // the on-disk state a crash can leave.
  {
    TestbedOptions options;
    options.wal_dir = dir.path;
    auto victim = MakeDeployment(Scheme::kBasic, topo, options);
    victim->system().Run();
  }
  std::string torn_path = WalPath(dir.path, last);
  auto size = std::filesystem::file_size(torn_path);
  ASSERT_GT(size, 8u);
  std::filesystem::resize_file(torn_path, size - 3);

  // Second life: recover the intact prefix (the tear is reported once,
  // here) and keep working; Attach cut the torn frame away, so these
  // appends land at a decodable position.
  std::string resumed_fingerprint;
  {
    TestbedOptions options;
    options.wal_dir = dir.path;
    auto resumed = MakeDeployment(Scheme::kBasic, topo, options, 0);
    auto stats = resumed->wal()->Recover();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->corrupt_frames, 1u);
    ASSERT_TRUE(
        apps::InstallRoutesForPair(resumed->system(), topo, 0, last).ok());
    for (int round = 0; round < 3; ++round) {
      ASSERT_TRUE(resumed->system()
                      .ScheduleInject(apps::MakePacket(
                                          0, 0, last,
                                          apps::MakePayload(32, round)),
                                      0.004 * (round + 1))
                      .ok());
    }
    resumed->system().Run();
    resumed_fingerprint = StateFingerprint(*resumed);
  }

  // Second crash: every record the second life journaled must replay —
  // the log is clean end to end, nothing stranded, nothing lost.
  TestbedOptions options;
  options.wal_dir = dir.path;
  auto recovered = MakeDeployment(Scheme::kBasic, topo, options, 0);
  auto stats = recovered->wal()->Recover();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->corrupt_frames, 0u);
  EXPECT_GT(stats->records_replayed, 0u);
  EXPECT_EQ(resumed_fingerprint, StateFingerprint(*recovered));
}

// ---------------------------------------------------------------------
// WAL replay oracle over random DELPs: for 50 generated programs (random
// chain length, relocation, value rewrites — the random_delp_test
// family), a journaled run's WAL must rebuild tables byte-identical to
// the run that wrote it.
// ---------------------------------------------------------------------

std::string GenerateChainDelp(Rng& rng, int* num_rules_out) {
  int num_rules = 1 + static_cast<int>(rng.NextBelow(3));
  bool has_constraint = rng.NextBelow(2) == 0;
  std::string src;
  for (int i = 1; i <= num_rules; ++i) {
    bool relocate = rng.NextBelow(2) == 0;
    int mode = static_cast<int>(rng.NextBelow(4));
    std::string head_loc = relocate ? "N" : "L";
    std::string a_prime;
    switch (mode) {
      case 0: a_prime = "A"; break;
      case 1: a_prime = "C"; break;
      case 2: a_prime = "A + B"; break;
      default: a_prime = "B"; break;
    }
    std::string b_prime = (rng.NextBelow(2) == 0) ? "B" : "A";
    std::string rule = "r" + std::to_string(i) + " e" + std::to_string(i) +
                       "(@" + head_loc + ", AP, " + b_prime + ") :- e" +
                       std::to_string(i - 1) + "(@L, A, B), s" +
                       std::to_string(i) + "(@L, A, N, C), AP := " + a_prime +
                       ".";
    if (has_constraint && i == num_rules) {
      rule.insert(rule.size() - 1, ", A >= 0");
    }
    src += rule + "\n";
  }
  *num_rules_out = num_rules;
  return src;
}

class RandomDelpReplayTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomDelpReplayTest, WalReplayRebuildsIdenticalTables) {
  Rng rng(GetParam() * 2654435761ULL + 7);
  int num_rules = 0;
  std::string source = GenerateChainDelp(rng, &num_rules);
  auto program = Program::Parse(source);
  ASSERT_TRUE(program.ok()) << program.status().ToString() << "\n" << source;

  const int n = 4;
  Topology topo;
  topo.AddNodes(n);
  for (int x = 0; x < n; ++x) {
    Status st = topo.AddLink(x, (x + 1) % n, LinkProps{0.001, 1e9});
    ASSERT_TRUE(st.ok() || st.IsAlreadyExists());
  }
  topo.ComputeRoutes();

  // Rotate through the compressing schemes across seeds.
  constexpr Scheme kSchemes[] = {Scheme::kExspan, Scheme::kBasic,
                                 Scheme::kAdvanced,
                                 Scheme::kAdvancedInterClass};
  Scheme scheme = kSchemes[GetParam() % 4];

  TempDir dir("delp");
  {
    TestbedOptions options;
    options.wal_dir = dir.path;
    auto bed = Testbed::Create(*program, &topo, scheme, options);
    ASSERT_TRUE(bed.ok()) << bed.status().ToString();
    for (int i = 1; i <= num_rules; ++i) {
      for (int x = 0; x < n; ++x) {
        for (int a = 0; a < 12; ++a) {
          ASSERT_TRUE((*bed)
                          ->system()
                          .InsertSlowTuple(Tuple::Make(
                              "s" + std::to_string(i), x,
                              {Value::Int(a), Value::Int((x + 1) % n),
                               Value::Int((x + a) % 3)}))
                          .ok());
        }
      }
    }
    double t = 0;
    for (int x = 0; x < n; ++x) {
      for (int a = 0; a < 3; ++a) {
        for (int b = 0; b < 2; ++b) {
          ASSERT_TRUE((*bed)
                          ->system()
                          .ScheduleInject(
                              Tuple::Make("e0", x,
                                          {Value::Int(a), Value::Int(b)}),
                              t += 0.001)
                          .ok());
        }
      }
    }
    (*bed)->system().Run();

    // Recover into a fresh deployment and compare byte-for-byte.
    TestbedOptions fresh_options;
    fresh_options.wal_dir = dir.path;
    auto fresh = Testbed::Create(*program, &topo, scheme, fresh_options);
    ASSERT_TRUE(fresh.ok());
    auto stats = (*fresh)->wal()->Recover();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->corrupt_frames, 0u);
    EXPECT_EQ(StateFingerprint(**bed), StateFingerprint(**fresh))
        << apps::SchemeName(scheme) << "\n" << source;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDelpReplayTest,
                         ::testing::Range<uint64_t>(1, 51));

}  // namespace
}  // namespace dpc
