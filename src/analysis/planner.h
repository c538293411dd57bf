// Analysis-driven rule compiler (the planner) and the runtime's one rule
// executor. Each DELP rule is compiled once, when the program loads, into
// an index-backed join plan over dense value slots:
//
//   * a join order chosen greedily by bound-variable coverage, so an atom
//     sharing variables with what is already bound is probed before one
//     that would cross-product;
//   * a placement for every assignment and constraint at the earliest
//     join position where all of its variables are bound (constraint and
//     assignment pushdown), with constraints the constant folder proves
//     always-true (W401) folded out of the plan entirely and an
//     always-false constraint (W402) marking the whole rule never-firing;
//   * per condition atom, the signature of bound columns the probe
//     supplies — exactly the hash indexes (src/db/table.h) the runtime
//     builds lazily per slow-changing table;
//   * slot operations: every variable resolves to a slot index in binding
//     order, so atom matching, probe keys, assignments and head
//     instantiation read and write positions instead of a string-keyed
//     environment.
//
// RuleExecutor runs a compiled plan; FireRulePlanned runs it for one
// event, and the batch evaluator (src/runtime/batch_eval.h) for every
// event of a batch. Plans preserve the naive evaluator's (src/ndlog/eval.h
// FireRule) firing set for well-typed programs, with RuleFiring.slow_tuples
// restored to body-atom order so provenance recording is unchanged (see
// docs/ndlog.md, "The planned-evaluation contract").
#ifndef DPC_ANALYSIS_PLANNER_H_
#define DPC_ANALYSIS_PLANNER_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/db/table.h"
#include "src/ndlog/eval.h"
#include "src/ndlog/program.h"

namespace dpc {

// How one column of a compiled atom unifies with a tuple value.
struct SlotOp {
  enum class Kind : uint8_t {
    kBind,       // first occurrence of a variable: the slot takes the value
    kCheckSlot,  // variable already bound: the value must equal the slot's
    kCheckConst  // constant term: the value must equal the atom's constant
  };
  Kind kind = Kind::kCheckConst;
  uint32_t slot = 0;  // kBind / kCheckSlot
};

// A pushed-down assignment `var := expr` compiled against slots. The
// right-hand side reads slots [0, bound); the result then binds `slot`
// (binds) or must equal the value `slot` already holds.
struct SlotAssignment {
  uint32_t bound = 0;
  uint32_t slot = 0;
  bool binds = false;
};

// One probe of a condition atom in the planned join order.
struct PlanStep {
  // Index into rule.atoms of the condition atom this step joins.
  size_t atom_index = 0;
  // Sorted columns of the atom bound (by constants or earlier bindings)
  // when the step runs. Empty: the probe degrades to a full scan.
  IndexSignature bound_columns;
  // True when the step binds nothing shared with the tuples joined so
  // far and is not the first probe: a cross-product join (W601).
  bool cross_product = false;
  // Indexes into rule.assignments / rule.constraints evaluated right
  // after this step's match, in body order (assignments first).
  std::vector<size_t> assignments;
  std::vector<size_t> constraints;

  // --- compiled form, run by RuleExecutor ------------------------------
  // One op per column of the atom (ops.size() is its arity).
  std::vector<SlotOp> ops;
  // Probe-key sources aligned with bound_columns: the slot holding the
  // key value, or -1 for the atom's constant at that column.
  std::vector<int32_t> key_slots;
  // Aligned with `assignments`.
  std::vector<SlotAssignment> slot_assignments;
  // `constraints` read slots [0, constraint_slots).
  uint32_t constraint_slots = 0;
};

// The compiled form of one rule.
struct RulePlan {
  std::string rule_id;
  // Condition atoms in execution order.
  std::vector<PlanStep> steps;
  // Assignments/constraints evaluable as soon as the event atom has
  // matched, before any table probe (the deepest pushdown).
  std::vector<size_t> pre_assignments;
  std::vector<size_t> pre_constraints;
  // Constraints the constant folder proved always-true; dropped from
  // execution (they can never filter).
  std::vector<size_t> folded_constraints;
  // A constraint folds to false: the rule can never fire and the executor
  // returns no firings without probing anything.
  bool never_fires = false;

  // --- compiled form, run by RuleExecutor ------------------------------
  // Variable held by each slot. Slots are numbered in binding order
  // (event atom, pre-assignments, then each step's atom and assignments),
  // so the slots bound at any point of the plan are a prefix [0, n).
  std::vector<std::string> slot_vars;
  // One op per column of the event atom.
  std::vector<SlotOp> event_ops;
  // Aligned with pre_assignments; pre_constraints read slots
  // [0, pre_constraint_slots).
  std::vector<SlotAssignment> pre_slot_assignments;
  uint32_t pre_constraint_slots = 0;
  // Per head column: the slot it reads, or -1 for a constant — or for a
  // variable nothing binds, which fails instantiation as FireRule does.
  std::vector<int32_t> head_slots;
  // Step positions reordered back to body-atom order, precomputed for
  // RuleFiring.slow_tuples so the executor doesn't sort per firing.
  std::vector<size_t> body_order;

  // --- batchability (docs/analysis.md) ---------------------------------
  // True when step 0's probe key is computable straight from the event
  // tuple: every bound column is a constant or a variable bound at an
  // event-atom position. The batch evaluator then hashes and groups
  // events by first-probe key without matching each event first.
  std::vector<int> first_key_event_pos;   // event position, or -1: constant
  std::vector<Value> first_key_constants;  // aligned; used where pos == -1
  bool batch_first_key = false;

  // True when any step is a cross-product join.
  bool HasCrossProduct() const;
  // "ev ⨝ rel[0,1] ⨝ rel2[scan]"-style display of the join order.
  std::string ToString(const Rule& rule) const;
};

// The compiled form of a program: one plan per rule plus the union of
// index signatures each slow-changing relation will be probed with.
struct ProgramPlan {
  std::vector<RulePlan> rules;  // parallel to the source rule vector
  std::map<std::string, std::set<IndexSignature>> index_signatures;
};

// Compiles one rule.
RulePlan PlanRule(const Rule& rule);

// Compiles every rule and aggregates per-relation index signatures.
// Works on arbitrary (even non-conformant) rule vectors: the plan pass
// runs it before a Program can necessarily be constructed.
ProgramPlan PlanRules(const std::vector<Rule>& rules);
ProgramPlan PlanProgram(const Program& program);

// Executes one compiled plan over value slots. Each slot has exactly one
// binder, which runs before any reader on every branch, so backtracking
// needs no trail: the next candidate simply overwrites the slots. The
// executor holds only mutable scratch for the calls made on it (slot
// values, joined rows, per-depth candidates, tables and indexes resolved
// on first use), so callers build one per call — FireRulePlanned per
// event, FireRuleBatched per (rule, batch) — and no thread shares one.
// Candidates come only from Table::IndexFor + CollectFromIndex (bound
// probes) or Table::ForEachRef (scans).
class RuleExecutor {
 public:
  // `plan` must have been compiled from `rule`. The database must not
  // change while the executor is in use.
  RuleExecutor(const Rule& rule, const RulePlan& plan, const Database& db,
               const FunctionRegistry& fns);

  // Evaluates the plan for `event`, appending its firings in plan order
  // with candidates in index-bucket or table insertion order. When
  // `first_candidates` is non-null it replaces step 0's table probe (the
  // batch path's shared group probe); candidates are still fully unified,
  // so a list keyed on a 64-bit hash is safe. On error `out` may hold the
  // firings produced before it.
  Status Execute(const Tuple& event,
                 const std::vector<const TupleRef*>* first_candidates,
                 std::vector<RuleFiring>& out);

 private:
  // Per-step scratch.
  struct Depth {
    bool resolved = false;  // table/index looked up in this executor
    const Table* table = nullptr;
    const Table::HashIndex* index = nullptr;  // null: scan
    const TupleRef* joined = nullptr;
    std::vector<const TupleRef*> candidates;
  };

  bool Unify(const Atom& atom, const std::vector<SlotOp>& ops,
             const Tuple& tuple);
  // Evaluates the assignments/constraints placed at one plan position:
  // false prunes the branch, errors surface as a Status.
  Result<bool> Apply(const std::vector<size_t>& assignments,
                     const std::vector<SlotAssignment>& slot_assignments,
                     const std::vector<size_t>& constraints,
                     uint32_t constraint_slots);
  // EvalExprWith over the slots [0, readable).
  Result<Value> Eval(const Expr& expr, uint32_t readable) const;
  Status Join(size_t idx);
  // Instantiates the head and appends the firing to *out_.
  Status AppendFiring();

  const Rule& rule_;
  const RulePlan& plan_;
  const Database& db_;
  const FunctionRegistry& fns_;
  std::vector<const Value*> slots_;
  // Storage for assignment-bound slots (allocated on first use).
  std::vector<Value> computed_;
  std::vector<Depth> depth_;
  const std::vector<const TupleRef*>* first_candidates_ = nullptr;
  std::vector<RuleFiring>* out_ = nullptr;
};

// Fires `rule` under `plan` (which must have been compiled from it) for
// one event. Identical firing sets to FireRule for well-typed programs;
// see docs/ndlog.md for the exact contract.
Result<std::vector<RuleFiring>> FireRulePlanned(const Rule& rule,
                                                const RulePlan& plan,
                                                const Tuple& event,
                                                const Database& db,
                                                const FunctionRegistry& fns);

}  // namespace dpc

#endif  // DPC_ANALYSIS_PLANNER_H_
