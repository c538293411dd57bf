// dpc_perfbench: the libdpc benchmark binary (see README.md in this
// directory; run.py builds and drives it).
//
//   dpc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--workdir DIR] [--min-reps K]
//
// Repeats the workload for S host seconds (at least --min-reps times; it
// stops before a repetition that would overrun), then runs the same inputs
// once through apps::RunForwarding / apps::RunDns as a wiring-parity
// reference. With
// --trace 1 repetitions alternate between the plain and the decorated
// deployment, and the per-layer metrics come from the decorated ones.
//
// Output: a human-readable report on stderr; on stdout a "detail" JSON line
// (run metadata, deterministic counts, every metric) followed, as the last
// line, by the result object {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "layer_trace.h"
#include "workloads.h"

namespace dpc::perfbench {
namespace {

// Timings from an unoptimized or sanitizer build are not reported.
bool TimingBuild(std::string* why) {
#if !defined(__OPTIMIZE__)
  *why = "built without optimization";
  return false;
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  *why = "built with a sanitizer";
  return false;
#else
  (void)why;
  return true;
#endif
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/work";
  int min_reps = 2;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--min-reps") {
      args->min_reps = std::max(1, std::atoi(value.c_str()));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !args->workload.empty();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Linear interpolation between closest ranks.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " +
         JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
         "\"}";
  }
  return s + "}";
}

// --- end-to-end metrics (plain repetitions) ---------------------------------

std::vector<Metric> EndToEnd(const std::vector<RepResult>& reps,
                             double peak_rss_mb) {
  // Medians over repetitions: a slow spell on a shared host then moves one
  // sample, not the reported value. Query percentiles are taken within
  // each repetition (thousands of samples each) first.
  std::vector<double> setup, rate, recover, p50, p99, sim_mean;
  for (const RepResult& r : reps) {
    setup.insert(setup.end(), r.setup_s.begin(), r.setup_s.end());
    rate.push_back(Ratio(r.counts.at("injected"), r.window_s));
    recover.insert(recover.end(), r.recover_s.begin(), r.recover_s.end());
    p50.push_back(Percentile(r.query_us, 50));
    p99.push_back(Percentile(r.query_us, 99));
    sim_mean.push_back(Mean(r.query_sim_ms));
  }
  const auto& c = reps.front().counts;
  double injected = static_cast<double>(c.at("injected"));
  return {
      {"setup_s", "s", Median(setup)},
      {"events_per_s", "1/s", Median(rate)},
      {"peak_rss_mb", "MB", peak_rss_mb},
      {"storage_B_per_event", "B", Ratio(c.at("storage_bytes"), injected)},
      {"wire_B_per_event", "B", Ratio(c.at("window.bytes"), injected)},
      {"query_p50_us", "us", Median(p50)},
      {"query_p99_us", "us", Median(p99)},
      {"query_sim_ms_mean", "ms", Median(sim_mean)},
      {"recover_s", "s", Median(recover)},
      {"wal_B_per_event", "B",
       Ratio(c.at("wal.bytes") + c.at("wal.checkpoint_bytes"), injected)},
  };
}

// --- per-layer metrics (one decorated repetition) ---------------------------

std::vector<Metric> PerLayer(const RepResult& r) {
  const auto& c = r.counts;
  auto count = [&c](const char* name) {
    return static_cast<double>(c.at(name));
  };
  const LayerTotals& setup = r.phases[kSetupPhase].totals;
  const PhaseTrace& window = r.phases[kWindowPhase];
  const LayerTotals& w = window.totals;
  const LayerTotals& q = r.phases[kQueryPhase].totals;
  const LayerTotals& d = r.phases[kDurabilityPhase].totals;
  double injected = count("injected");
  double events = count("window.queue_events");
  double residual = window.wall_s - w.top_level_s;
  double hooks = static_cast<double>(w.count(Layer::kRecorder));
  double deliveries = static_cast<double>(w.count(Layer::kRuntime));
  // Evaluations: events processed alone, plus one per same-instant batch.
  double evaluations =
      injected + deliveries - count("batched_events") + count("batches");
  double vid_lookups =
      count("identity.vid_hits") + count("identity.vid_misses");
  double queries = count("query.count");
  double nodes = count("nodes");
  return {
      {"setup.topology_s", "s", r.split.topology_s},
      {"setup.program_s", "s", r.split.program_s},
      {"setup.deploy_s", "s", r.split.deploy_s},
      {"setup.install_s", "s", r.split.install_s},
      {"setup.drain_s", "s", r.split.drain_s},
      {"setup.schedule_s", "s", r.split.schedule_s},
      {"setup.queue_events", "count", count("setup.queue_events")},
      {"setup.messages", "count", count("setup.messages")},
      {"setup.broadcasts", "count",
       Ratio(count("setup.control_signals"), nodes)},
      {"setup.broadcast_s", "s", setup.self(Layer::kBroadcast)},
      {"queue.events", "count", events},
      {"queue.events_per_inject", "ratio", Ratio(events, injected)},
      {"queue.events_per_message", "ratio",
       Ratio(events, count("window.messages"))},
      {"queue.residual_s", "s", residual},
      {"queue.ns_per_event", "ns", Ratio(residual, events) * 1e9},
      {"net.sends", "count", static_cast<double>(w.count(Layer::kNet))},
      {"net.send_s", "s", w.self(Layer::kNet) + w.self(Layer::kBroadcast)},
      {"net.messages", "count", count("window.messages")},
      {"net.bytes", "B", count("window.bytes")},
      {"net.messages_per_inject", "ratio",
       Ratio(count("window.messages"), injected)},
      {"runtime.deliveries", "count", deliveries},
      {"runtime.self_s", "s", w.self(Layer::kRuntime)},
      {"runtime.ns_per_delivery", "ns",
       Ratio(w.self(Layer::kRuntime), deliveries) * 1e9},
      {"runtime.firings_per_inject", "ratio",
       Ratio(count("rule_firings"), injected)},
      {"runtime.batch_mean", "ratio",
       Ratio(injected + deliveries, evaluations)},
      {"recorder.hooks", "count", hooks},
      {"recorder.hook_s", "s", w.self(Layer::kRecorder)},
      {"recorder.ns_per_hook", "ns",
       Ratio(w.self(Layer::kRecorder), hooks) * 1e9},
      {"recorder.meta_s", "s", w.self(Layer::kMeta)},
      {"identity.sha1_per_inject", "ratio",
       Ratio(count("identity.sha1"), injected)},
      {"identity.serialized_B_per_inject", "B",
       Ratio(count("identity.serialized_bytes"), injected)},
      {"identity.vid_hit_rate", "ratio",
       Ratio(count("identity.vid_hits"), vid_lookups)},
      {"wal.self_s", "s", w.self(Layer::kWal)},
      {"wal.records", "count", count("wal.records")},
      {"wal.bytes", "B", count("wal.bytes")},
      {"wal.checkpoints", "count", count("wal.checkpoints")},
      {"wal.checkpoint_s", "s",
       w.self(Layer::kCheckpoint) + d.self(Layer::kCheckpoint)},
      {"wal.records_replayed", "count", count("wal.records_replayed")},
      {"wal.recover_s", "s",
       Ratio(d.self(Layer::kRecover),
             static_cast<double>(d.count(Layer::kRecover)))},
      {"query.count", "count", queries},
      {"query.self_s", "s", q.self(Layer::kQuery)},
      {"query.entries_per_query", "ratio",
       Ratio(count("query.entries"), queries)},
      {"query.hops_per_query", "ratio", Ratio(count("query.hops"), queries)},
      {"query.trees_per_query", "ratio", Ratio(count("query.trees"), queries)},
  };
}

// Medians over the decorated repetitions, plus the tracing overhead against
// the plain ones.
std::vector<Metric> PerLayerMedians(const std::vector<RepResult>& traced,
                                    const std::vector<RepResult>& plain) {
  std::vector<std::vector<Metric>> per_rep;
  for (const RepResult& r : traced) per_rep.push_back(PerLayer(r));
  std::vector<Metric> out = per_rep.front();
  for (size_t i = 0; i < out.size(); ++i) {
    std::vector<double> v;
    for (const auto& rep : per_rep) v.push_back(rep[i].value);
    out[i].value = Median(v);
  }
  std::vector<double> traced_window, plain_window;
  for (const RepResult& r : traced) traced_window.push_back(r.window_s);
  for (const RepResult& r : plain) plain_window.push_back(r.window_s);
  out.push_back({"trace.overhead_pct", "%",
                 (Ratio(Median(traced_window), Median(plain_window)) - 1) *
                     100});
  return out;
}

// --- self-checks -------------------------------------------------------------

// Every phase of a decorated repetition must close: per-layer self times
// plus the residual equal the phase's wall time, with no negative part.
bool CheckClosure(const RepResult& r, std::string* why) {
  for (int p = 0; p < kNumPhases; ++p) {
    const PhaseTrace& ph = r.phases[p];
    double residual = ph.wall_s - ph.totals.top_level_s;
    double gap = ph.totals.SelfSum() + residual - ph.wall_s;
    bool ok = residual >= -1e-9 && std::fabs(gap) <= 1e-6;
    for (double s : ph.totals.self_s) ok = ok && s >= -1e-9;
    if (!ok) {
      *why = std::string("phase ") + PhaseName(p) + " does not close: wall " +
             std::to_string(ph.wall_s) + " s, self sum " +
             std::to_string(ph.totals.SelfSum()) + " s, residual " +
             std::to_string(residual) + " s";
      return false;
    }
  }
  return true;
}

// Deterministic counts must not depend on the repetition or on decoration.
bool CheckDeterminism(const std::vector<const RepResult*>& reps,
                      std::string* why) {
  const auto& first = reps.front()->counts;
  for (const RepResult* r : reps) {
    for (const auto& [name, value] : first) {
      auto it = r->counts.find(name);
      if (it == r->counts.end() || it->second != value) {
        *why = "count " + name + " is " + std::to_string(value) +
               " in the first repetition but " +
               (it == r->counts.end() ? std::string("absent")
                                      : std::to_string(it->second)) +
               " in a " + (r->traced ? "traced" : "plain") + " one";
        return false;
      }
    }
  }
  return true;
}

// The benchmark's deployment must behave as the library's experiment runner
// (apps::RunForwarding / apps::RunDns) does.
bool CheckParity(const RepResult& r, const apps::ExperimentResult& ref,
                 std::string* why) {
  auto ref_counter = [&ref](const char* name) -> uint64_t {
    auto it = ref.metrics.counters.find(name);
    return it == ref.metrics.counters.end() ? 0 : it->second;
  };
  const std::pair<const char*, uint64_t> expected[] = {
      {"storage_bytes", ref.final_storage.Total()},
      {"window.bytes", ref.total_network_bytes},
      {"window.messages", ref.total_messages},
      {"outputs", ref.outputs},
      {"injected", ref.events_injected},
      {"identity.sha1", ref.identity.sha1_invocations},
      {"wal.records", ref_counter("wal.records")},
      {"wal.bytes", ref_counter("wal.bytes")},
  };
  for (const auto& [name, theirs] : expected) {
    uint64_t ours = r.counts.at(name);
    if (ours != theirs) {
      *why = std::string(name) + ": benchmark deployment " +
             std::to_string(ours) + ", apps runner " +
             std::to_string(theirs);
      return false;
    }
  }
  return true;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintPhaseTable(const RepResult& r) {
  std::fprintf(stderr, "  %-11s %10s", "phase", "wall_s");
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    std::fprintf(stderr, " %11s", LayerName(static_cast<Layer>(l)));
  }
  std::fprintf(stderr, " %11s\n", "residual");
  for (int p = 0; p < kNumPhases; ++p) {
    const PhaseTrace& ph = r.phases[p];
    std::fprintf(stderr, "  %-11s %10.4f", PhaseName(p), ph.wall_s);
    for (double s : ph.totals.self_s) std::fprintf(stderr, " %11.4f", s);
    std::fprintf(stderr, " %11.4f\n", ph.wall_s - ph.totals.top_level_s);
  }
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::fprintf(stderr, "%s\n", title);
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dpc_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR] [--min-reps K]\n");
    return 2;
  }
  std::string why;
  if (!TimingBuild(&why)) {
    std::fprintf(stderr, "refusing to report timings: %s\n", why.c_str());
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s; known:", args.workload.c_str());
    for (const WorkloadSpec& s : AllWorkloads()) {
      std::fprintf(stderr, " %s", s.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::filesystem::create_directories(args.workdir);

  Environment env = MakeEnvironment(*spec, args.seed);
  std::vector<RepResult> plain, traced;
  SpanClock clock;
  double measured = 0;
  // Plain and decorated repetitions alternate, each pair in swapped order,
  // so host drift hits both sides alike.
  for (int i = 0;; ++i) {
    size_t have = args.trace ? std::min(plain.size(), traced.size())
                             : plain.size();
    // Stop before a repetition that would overrun --seconds.
    double next = i == 0 ? 0 : measured / i;
    if (have >= static_cast<size_t>(args.min_reps) &&
        measured + next > args.seconds) {
      break;
    }
    bool decorate = args.trace && ((i % 2 == 1) != ((i / 2) % 2 == 1));
    Clock::time_point start = Clock::now();
    RepResult r = RunRep(*spec, env, args.seed, decorate ? &clock : nullptr,
                         args.workdir);
    double rep_s = SecondsSince(start);
    measured += rep_s;
    std::fprintf(stderr,
                 "rep %d (%s, %.2f s): setup %.3f s, window %.3f s, query p50 "
                 "%.1f us, recover %.3f s, failed %llu/%llu\n",
                 i, decorate ? "traced" : "plain", rep_s, Median(r.setup_s),
                 r.window_s,
                 Percentile(r.query_us, 50), Median(r.recover_s),
                 static_cast<unsigned long long>(r.failed),
                 static_cast<unsigned long long>(r.attempted));
    (decorate ? traced : plain).push_back(std::move(r));
  }
  const double peak_rss_mb = PeakRssMb();
  apps::ExperimentResult reference = RunReference(*spec, env, args.workdir);
  std::filesystem::remove_all(args.workdir);

  uint64_t attempted = 0, failed = 0;
  std::vector<const RepResult*> all;
  for (const auto* group : {&plain, &traced}) {
    for (const RepResult& r : *group) {
      all.push_back(&r);
      attempted += r.attempted;
      failed += r.failed;
      for (const std::string& f : r.failures) {
        std::fprintf(stderr, "FAILED: %s\n", f.c_str());
      }
    }
  }
  bool correct = failed == 0;
  std::vector<std::string> problems;
  if (!CheckDeterminism(all, &why)) problems.push_back("determinism: " + why);
  if (!CheckParity(plain.front(), reference, &why)) {
    problems.push_back("parity: " + why);
  }
  for (const RepResult& r : traced) {
    if (!CheckClosure(r, &why)) problems.push_back("closure: " + why);
  }
  for (const std::string& p : problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  }
  correct = correct && problems.empty();

  std::vector<Metric> e2e = EndToEnd(plain, peak_rss_mb);
  std::vector<Metric> layers;
  PrintMetrics("end-to-end (plain repetitions):", e2e);
  if (args.trace) {
    layers = PerLayerMedians(traced, plain);
    std::fprintf(stderr, "layer self time by phase (first traced rep):\n");
    PrintPhaseTable(traced.front());
    PrintMetrics("per-layer (median of traced repetitions):", layers);
  }
  std::fprintf(stderr, "attempted %llu, failed %llu, failed_frac %.6g; %s\n",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed),
               Ratio(static_cast<double>(failed),
                     static_cast<double>(attempted)),
               correct ? "all checks passed" : "CHECKS FAILED");

  std::string counts = "{";
  for (const auto& [name, value] : plain.front().counts) {
    if (counts.size() > 1) counts += ", ";
    counts += "\"" + name + "\": " + std::to_string(value);
  }
  counts += "}";
  std::printf(
      "{\"detail\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"host_cores\": %u, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"plain_reps\": %zu, \"traced_reps\": %zu, "
      "\"params\": {\"pairs\": %zu, \"rate_pps\": %s, \"duration_s\": %s, "
      "\"requests\": %zu, \"request_rate\": %s, \"queries\": %zu, "
      "\"nodes\": %d, \"wal\": %s, \"checkpoint_interval_s\": %s}, "
      "\"failed_frac\": %s, \"checks\": %s, \"counts\": %s, "
      "\"end_to_end\": %s, \"per_layer\": %s}}\n",
      spec->name.c_str(), static_cast<unsigned long long>(args.seed),
      JsonNumber(args.seconds).c_str(), args.trace ? 1 : 0,
      std::thread::hardware_concurrency(), DPC_PERFBENCH_BUILD_TYPE,
      DPC_PERFBENCH_COMPILER, plain.size(), traced.size(), spec->pairs,
      JsonNumber(spec->rate_pps).c_str(), JsonNumber(spec->duration_s).c_str(),
      spec->requests, JsonNumber(spec->request_rate).c_str(), spec->queries,
      env.graph().num_nodes(), spec->wal ? "true" : "false",
      JsonNumber(spec->checkpoint_interval_s).c_str(),
      JsonNumber(Ratio(static_cast<double>(failed),
                       static_cast<double>(attempted)))
          .c_str(),
      problems.empty() ? "\"passed\"" : "\"failed\"", counts.c_str(),
      MetricsJson(e2e).c_str(), MetricsJson(layers).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(args.trace ? layers : e2e).c_str());
  return 0;
}

}  // namespace
}  // namespace dpc::perfbench

int main(int argc, char** argv) { return dpc::perfbench::Main(argc, argv); }
