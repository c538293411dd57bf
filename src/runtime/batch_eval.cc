#include "src/runtime/batch_eval.h"

#include <cstdint>
#include <vector>

#include "src/db/table.h"
#include "src/util/hash.h"

namespace dpc {

namespace {

// First-probe key hash for one event, read directly off the event tuple's
// positions (RulePlan::batch_first_key). Returns false when the event is
// too short for some key position — such an event cannot match the rule's
// event atom (unification checks arity first), so the caller routes it
// through the plain per-event path, which yields no firings.
bool FirstKeyHash(const RulePlan& plan, const Tuple& event, uint64_t* hash) {
  Fnv1a h;
  for (size_t k = 0; k < plan.first_key_event_pos.size(); ++k) {
    int pos = plan.first_key_event_pos[k];
    if (pos < 0) {
      plan.first_key_constants[k].HashInto(h);
      continue;
    }
    if (static_cast<size_t>(pos) >= event.arity()) return false;
    event.at(static_cast<size_t>(pos)).HashInto(h);
  }
  *hash = h.hash();
  return true;
}

}  // namespace

std::vector<BatchEventFirings> FireRuleBatched(
    const Rule& rule, const RulePlan& plan,
    const std::vector<const Tuple*>& events, const Database& db,
    const FunctionRegistry& fns) {
  std::vector<BatchEventFirings> out(events.size());
  if (plan.never_fires) return out;

  RuleExecutor exec(rule, plan, db, fns);
  auto run_one = [&](const Tuple& event,
                     const std::vector<const TupleRef*>* first_candidates,
                     BatchEventFirings& r) {
    r.status = exec.Execute(event, first_candidates, r.firings);
    if (!r.status.ok()) r.firings.clear();
  };

  const Table* first_table =
      plan.steps.empty()
          ? nullptr
          : db.Find(rule.atoms[plan.steps[0].atom_index].relation);
  if (!plan.batch_first_key || first_table == nullptr) {
    // No direct key read (or nothing to probe): the win is the shared
    // executor scratch. A missing first table still runs per event so
    // pre-join evaluation errors surface exactly as per event.
    for (size_t i = 0; i < events.size(); ++i) {
      run_one(*events[i], nullptr, out[i]);
    }
    return out;
  }

  // Fast path: hash each event's first-probe key off the tuple and group
  // equal hashes with an open-addressed chain table (O(n), no sort), then
  // fetch each group's candidate run once and execute the plan per member
  // with the probe hoisted out. Evaluation is pure, so grouped execution
  // order doesn't matter — results land at each event's original slot.
  const Table::HashIndex& first_index =
      first_table->IndexFor(plan.steps[0].bound_columns);

  struct Group {
    uint64_t hash = 0;
    int32_t head = -1;  // first event index in the chain
    int32_t tail = -1;  // last event index, for O(1) append
  };
  size_t cap = 1;
  while (cap < events.size() * 2) cap <<= 1;
  std::vector<Group> groups(cap);
  std::vector<int32_t> next(events.size(), -1);
  const size_t mask = cap - 1;
  for (size_t i = 0; i < events.size(); ++i) {
    uint64_t hash = 0;
    if (!FirstKeyHash(plan, *events[i], &hash)) {
      // Shape mismatch: cannot match the event atom; keep exact parity
      // with the per-event path (which returns OK with no firings).
      run_one(*events[i], nullptr, out[i]);
      continue;
    }
    size_t slot = hash & mask;
    while (groups[slot].head >= 0 && groups[slot].hash != hash) {
      slot = (slot + 1) & mask;
    }
    Group& group = groups[slot];
    if (group.head < 0) {
      group.hash = hash;
      group.head = group.tail = static_cast<int32_t>(i);
    } else {
      next[group.tail] = static_cast<int32_t>(i);
      group.tail = static_cast<int32_t>(i);
    }
  }

  // Within a group, identical events yield identical results (evaluation
  // is a pure function of event content and the frozen database), so each
  // result is computed once and later duplicates record a reference to it
  // (same_as) instead of recomputing — or deep-copying — the firings. The
  // rep list is capped: past it, members evaluate directly rather than
  // scanning an ever-longer list (adversarial all-distinct same-hash
  // groups).
  constexpr size_t kMaxMemoReps = 4;
  std::vector<const TupleRef*> candidates;
  std::vector<uint32_t> reps;
  for (const Group& group : groups) {
    if (group.head < 0) continue;
    candidates.clear();
    first_table->CollectFromIndex(first_index, group.hash, candidates);
    reps.clear();
    for (int32_t i = group.head; i >= 0; i = next[i]) {
      const Tuple& event = *events[i];
      const uint32_t* hit = nullptr;
      for (const uint32_t& r : reps) {
        if (*events[r] == event) {
          hit = &r;
          break;
        }
      }
      if (hit != nullptr) {
        out[i].status = out[*hit].status;
        out[i].same_as = static_cast<int32_t>(*hit);
        out[*hit].shared = true;
        continue;
      }
      run_one(event, &candidates, out[i]);
      if (reps.size() < kMaxMemoReps) {
        reps.push_back(static_cast<uint32_t>(i));
      }
    }
  }
  return out;
}

}  // namespace dpc
