// Microbenchmark: the naive reference FireRule (full table scans per
// condition atom) vs the runtime's compiled rule executor, run per event
// (FireRulePlanned: greedy join order, lazily built hash indexes, slot
// bindings) and batched (FireRuleBatched: one executor per batch of
// same-relation events) on a two-way join rule. Prints a JSON report; the
// checked-in snapshot lives at BENCH_eval.json.
//
//   r1 h(@L, A, B, C) :- e(@L, A), s1(@L, A, B), s2(@L, B, C).
//
// Every event matches exactly one s1 row, which selects exactly one s2
// row: the naive evaluator still scans both tables per event, while the
// executor does two O(1) index probes. The rows=10 case is where scanning
// is cheapest; it shows whether the executor beats the naive scan even
// there, which matters because the runtime runs the executor at every
// table size. The batch case evaluates the plan once over 10k
// same-timestamp events: shared executor scratch plus group-probed first
// keys amortize the per-event setup.
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/analysis/planner.h"
#include "src/ndlog/eval.h"
#include "src/ndlog/parser.h"
#include "src/runtime/batch_eval.h"
#include "src/util/logging.h"

namespace dpc {
namespace {

constexpr char kRuleText[] =
    "r1 h(@L, A, B, C) :- e(@L, A), s1(@L, A, B), s2(@L, B, C).";

struct CaseResult {
  int rows = 0;
  double naive_us_per_event = 0;
  double planned_us_per_event = 0;
  double batched_us_per_event = 0;
  double speedup = 0;          // naive / planned (executor per event)
  double batched_speedup = 0;  // planned / batched
};

double MicrosPerEvent(const std::vector<Tuple>& events, size_t iters,
                      const std::function<size_t(const Tuple&)>& fire) {
  size_t total_firings = 0;
  auto start = std::chrono::steady_clock::now();
  for (size_t it = 0; it < iters; ++it) {
    for (const Tuple& ev : events) total_firings += fire(ev);
  }
  auto end = std::chrono::steady_clock::now();
  DPC_CHECK(total_firings == iters * events.size());
  double us = std::chrono::duration<double, std::micro>(end - start).count();
  return us / static_cast<double>(iters * events.size());
}

// One FireRuleBatched call over the whole event set per iteration — the
// runtime's batch path when all events land at one simulated instant.
double MicrosPerEventBatched(const Rule& rule, const RulePlan& plan,
                             const std::vector<Tuple>& events,
                             const Database& db, const FunctionRegistry& fns,
                             size_t iters) {
  std::vector<const Tuple*> batch;
  batch.reserve(events.size());
  for (const Tuple& ev : events) batch.push_back(&ev);
  size_t total_firings = 0;
  auto start = std::chrono::steady_clock::now();
  for (size_t it = 0; it < iters; ++it) {
    std::vector<BatchEventFirings> out =
        FireRuleBatched(rule, plan, batch, db, fns);
    for (size_t i = 0; i < out.size(); ++i) {
      DPC_CHECK(out[i].status.ok());
      total_firings += FiringsOf(out, i).size();
    }
  }
  auto end = std::chrono::steady_clock::now();
  DPC_CHECK(total_firings == iters * events.size());
  double us = std::chrono::duration<double, std::micro>(end - start).count();
  return us / static_cast<double>(iters * events.size());
}

void FillDb(Database& db, int rows) {
  for (int a = 0; a < rows; ++a) {
    db.Insert(Tuple::Make("s1", 0,
                          {Value::Int(a), Value::Int((a * 7) % rows)}));
    db.Insert(Tuple::Make("s2", 0, {Value::Int(a), Value::Int(a + 1)}));
  }
}

// Warm-up: verifies all three paths agree and builds the lazy
// indexes outside the timed region (as the runtime would after the first
// event).
void WarmAndCheck(const Rule& rule, const RulePlan& plan,
                  const std::vector<Tuple>& events, const Database& db,
                  const FunctionRegistry& fns) {
  std::vector<const Tuple*> batch;
  for (const Tuple& ev : events) batch.push_back(&ev);
  std::vector<BatchEventFirings> batched =
      FireRuleBatched(rule, plan, batch, db, fns);
  for (size_t i = 0; i < events.size(); ++i) {
    auto naive = FireRule(rule, events[i], db, fns);
    auto planned = FireRulePlanned(rule, plan, events[i], db, fns);
    const std::vector<RuleFiring>& bfirings = FiringsOf(batched, i);
    DPC_CHECK(naive.ok() && planned.ok() && batched[i].status.ok());
    DPC_CHECK(naive->size() == 1 && planned->size() == 1 &&
              bfirings.size() == 1);
    DPC_CHECK(naive->front().head == planned->front().head);
    DPC_CHECK(naive->front().head == bfirings.front().head);
  }
}

CaseResult RunCase(const Rule& rule, const RulePlan& plan, int rows,
                   size_t iters) {
  Database db;
  FillDb(db, rows);
  std::vector<Tuple> events;
  for (int a = 0; a < rows; a += (rows > 64 ? rows / 64 : 1)) {
    events.push_back(Tuple::Make("e", 0, {Value::Int(a)}));
  }
  FunctionRegistry fns;
  WarmAndCheck(rule, plan, events, db, fns);

  CaseResult res;
  res.rows = rows;
  res.naive_us_per_event = MicrosPerEvent(events, iters, [&](const Tuple& ev) {
    return FireRule(rule, ev, db, fns)->size();
  });
  res.planned_us_per_event =
      MicrosPerEvent(events, iters, [&](const Tuple& ev) {
        return FireRulePlanned(rule, plan, ev, db, fns)->size();
      });
  res.batched_us_per_event =
      MicrosPerEventBatched(rule, plan, events, db, fns, iters);
  res.speedup = res.naive_us_per_event / res.planned_us_per_event;
  res.batched_speedup = res.planned_us_per_event / res.batched_us_per_event;
  return res;
}

// The headline case: 10k events of one relation at one simulated instant
// against a 1000-row table — the runtime drains them into a single batch,
// so the comparison is one FireRuleBatched call vs 10k FireRulePlanned
// calls.
CaseResult RunBatchCase(const Rule& rule, const RulePlan& plan, int rows,
                        int num_events, size_t iters) {
  Database db;
  FillDb(db, rows);
  std::vector<Tuple> events;
  events.reserve(static_cast<size_t>(num_events));
  for (int i = 0; i < num_events; ++i) {
    events.push_back(Tuple::Make("e", 0, {Value::Int(i % rows)}));
  }
  FunctionRegistry fns;
  WarmAndCheck(rule, plan, events, db, fns);

  CaseResult res;
  res.rows = rows;
  res.planned_us_per_event =
      MicrosPerEvent(events, iters, [&](const Tuple& ev) {
        return FireRulePlanned(rule, plan, ev, db, fns)->size();
      });
  res.batched_us_per_event =
      MicrosPerEventBatched(rule, plan, events, db, fns, iters);
  res.batched_speedup = res.planned_us_per_event / res.batched_us_per_event;
  return res;
}

int Main() {
  auto rules = ParseRules(kRuleText);
  DPC_CHECK(rules.ok());
  const Rule& rule = rules->front();
  ProgramPlan plan = PlanRules(*rules);

  std::vector<CaseResult> cases;
  cases.push_back(RunCase(rule, plan.rules[0], 10, 4000));
  cases.push_back(RunCase(rule, plan.rules[0], 100, 1500));
  cases.push_back(RunCase(rule, plan.rules[0], 1000, 300));
  CaseResult batch =
      RunBatchCase(rule, plan.rules[0], 1000, /*num_events=*/10000,
                   /*iters=*/30);

  std::printf("{\n  \"bench\": \"eval_bench\",\n  \"rule\": \"%s\",\n"
              "  \"cases\": [\n",
              kRuleText);
  for (size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    std::printf("    {\"rows\": %d, \"naive_us_per_event\": %.3f, "
                "\"planned_us_per_event\": %.3f, "
                "\"batched_us_per_event\": %.3f, \"speedup\": %.1f, "
                "\"batched_speedup\": %.1f}%s\n",
                c.rows, c.naive_us_per_event, c.planned_us_per_event,
                c.batched_us_per_event, c.speedup, c.batched_speedup,
                i + 1 < cases.size() ? "," : "");
  }
  std::printf("  ],\n  \"batch_case\": {\"rows\": %d, \"events\": 10000, "
              "\"planned_us_per_event\": %.3f, \"batched_us_per_event\": "
              "%.3f, \"batched_speedup\": %.1f}\n}\n",
              batch.rows, batch.planned_us_per_event,
              batch.batched_us_per_event, batch.batched_speedup);
  return 0;
}

}  // namespace
}  // namespace dpc

int main() { return dpc::Main(); }
