// Set-at-a-time rule evaluation over a batch of same-relation events
// (VLog's set-at-a-time rule execution applied to the compiled plans).
// The runtime drains every same-(node, relation) event scheduled at one
// simulated instant (EventQueue::DrainAtTime) and evaluates each compiled
// RulePlan once over the whole batch instead of once per tuple:
//
//   * one RuleExecutor (src/analysis/planner.h) per (rule, batch) — the
//     same executor FireRulePlanned runs per event — amortizes its slot,
//     candidate and table/index scratch across every event;
//   * when the plan's first probe key reads straight off the event tuple
//     (RulePlan::batch_first_key), events are hashed and chained into
//     same-key groups (O(n), no sort), and each distinct key's index
//     bucket is fetched once and shared by the whole group
//     (Table::CollectFromIndex) — the per-tuple key build, hash and
//     bucket lookup leave the inner loop entirely;
//   * content-identical events within a group evaluate once: evaluation
//     is a pure function of (event content, database), so a duplicate's
//     result is the representative's, recorded by reference (`same_as`)
//     rather than recomputed or deep-copied;
//   * results come back per event, in the batch's original order, so the
//     caller can emit firings, recorder hooks and sends in exactly the
//     tuple-at-a-time sequence (the determinism contract, docs/perf.md).
//
// FireRuleBatched(events)[i] is equivalent — firings, order, and status —
// to FireRulePlanned(events[i]) for every i: evaluation is pure (it reads
// the database and writes nothing), so factoring it out of the per-event
// loop cannot change any single event's result.
#ifndef DPC_RUNTIME_BATCH_EVAL_H_
#define DPC_RUNTIME_BATCH_EVAL_H_

#include <vector>

#include "src/analysis/planner.h"
#include "src/ndlog/eval.h"

namespace dpc {

// One batch member's evaluation result: the firings the event produced
// under the rule (possibly none) and the per-(event, rule) status —
// errors stay confined to the event that caused them, exactly as in
// tuple-at-a-time evaluation.
struct BatchEventFirings {
  Status status;
  std::vector<RuleFiring> firings;
  // Memoized duplicate: when >= 0, this event was content-identical to
  // batch member `same_as` and its logical firings are that entry's
  // (evaluation is pure, so identical events have identical results).
  // `firings` is left empty here; `status` is still this entry's own
  // (copied from the representative). Resolve with FiringsOf.
  int32_t same_as = -1;
  // Set on a representative some later duplicate points at. Consumers
  // that destructively move out of `firings` must copy when this is set
  // (the duplicates still need the originals).
  bool shared = false;
};

// The logical firings of batch member `i`, following `same_as` when the
// entry is a memoized duplicate (at most one hop: representatives are
// first occurrences and never duplicates themselves).
inline const std::vector<RuleFiring>& FiringsOf(
    const std::vector<BatchEventFirings>& all, size_t i) {
  const BatchEventFirings& r = all[i];
  return r.same_as >= 0 ? all[static_cast<size_t>(r.same_as)].firings
                        : r.firings;
}

// Evaluates `rule` under `plan` (compiled from it) for every event of a
// same-relation batch. Returns one entry per event, aligned with
// `events`; entry i matches FireRulePlanned(rule, plan, *events[i], ...)
// in firings, firing order, and status. The database must not change for
// the duration of the call (the caller defers all emission to afterwards).
std::vector<BatchEventFirings> FireRuleBatched(
    const Rule& rule, const RulePlan& plan,
    const std::vector<const Tuple*>& events, const Database& db,
    const FunctionRegistry& fns);

}  // namespace dpc

#endif  // DPC_RUNTIME_BATCH_EVAL_H_
