#include "src/analysis/planner.h"

#include <algorithm>
#include <numeric>
#include <tuple>
#include <utility>

#include "src/util/hash.h"
#include "src/util/logging.h"

namespace dpc {

namespace {

bool AllVarsBound(const Expr& expr, const std::set<std::string>& bound) {
  std::vector<std::string> vars;
  expr.CollectVars(vars);
  for (const std::string& v : vars) {
    if (bound.count(v) == 0) return false;
  }
  return true;
}

// Columns of `atom` whose term is a constant or an already-bound variable,
// sorted ascending. A repeated unbound variable contributes only its later
// occurrences once the first has bound it — but at probe time all
// occurrences bind together, so only constants and previously-bound
// variables count here.
IndexSignature BoundColumnsOf(const Atom& atom,
                              const std::set<std::string>& bound) {
  IndexSignature cols;
  for (size_t i = 0; i < atom.args.size(); ++i) {
    const Term& t = atom.args[i];
    if (!t.is_var() || bound.count(t.var) > 0) cols.push_back(i);
  }
  return cols;
}

// Scheduling state threaded through the pushdown: which assignments and
// constraints have been placed, and the variables bound so far.
struct Scheduler {
  const Rule& rule;
  std::set<std::string> bound;
  std::vector<bool> asn_placed;
  std::vector<bool> con_placed;

  explicit Scheduler(const Rule& r)
      : rule(r),
        asn_placed(r.assignments.size(), false),
        con_placed(r.constraints.size(), false) {}

  // Places every not-yet-placed assignment whose right-hand side is fully
  // bound (iterated to a fixpoint, so body-order chains like N := 2,
  // M := N + 1 place together) and then every fully-bound constraint.
  void PlaceReady(std::vector<size_t>& asn_out, std::vector<size_t>& con_out) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 0; i < rule.assignments.size(); ++i) {
        if (asn_placed[i]) continue;
        if (!AllVarsBound(*rule.assignments[i].expr, bound)) continue;
        asn_placed[i] = true;
        asn_out.push_back(i);
        bound.insert(rule.assignments[i].var);
        changed = true;
      }
    }
    for (size_t i = 0; i < rule.constraints.size(); ++i) {
      if (con_placed[i]) continue;
      if (!AllVarsBound(*rule.constraints[i].expr, bound)) continue;
      con_placed[i] = true;
      con_out.push_back(i);
    }
  }

  // Appends everything still unplaced (expressions over variables no atom
  // binds — only possible in non-conformant rules). Evaluating them last
  // reproduces the naive evaluator's unbound-variable error.
  void PlaceLeftovers(std::vector<size_t>& asn_out,
                      std::vector<size_t>& con_out) {
    for (size_t i = 0; i < rule.assignments.size(); ++i) {
      if (!asn_placed[i]) asn_out.push_back(i);
    }
    for (size_t i = 0; i < rule.constraints.size(); ++i) {
      if (!con_placed[i]) con_out.push_back(i);
    }
  }
};

// Resolves the plan's variables to slots in execution order — event
// atom, pre-assignments, then each step's probe key, atom and assignments
// — exactly the order in which evaluation binds them, so each slot's
// index is its binding order and the slots bound at any point are a
// prefix. Whether an assignment binds or checks, and whether an atom
// column binds or checks, is therefore decided here once per rule.
class SlotCompiler {
 public:
  explicit SlotCompiler(RulePlan& plan) : plan_(plan) {}

  std::vector<SlotOp> AtomOps(const Atom& atom) {
    std::vector<SlotOp> ops(atom.args.size());
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const Term& t = atom.args[i];
      if (!t.is_var()) continue;  // kCheckConst
      auto [slot, fresh] = Bind(t.var);
      ops[i].kind = fresh ? SlotOp::Kind::kBind : SlotOp::Kind::kCheckSlot;
      ops[i].slot = slot;
    }
    return ops;
  }

  std::vector<SlotAssignment> AssignmentOps(const Rule& rule,
                                            const std::vector<size_t>& asns) {
    std::vector<SlotAssignment> out;
    out.reserve(asns.size());
    for (size_t i : asns) {
      SlotAssignment sa;
      sa.bound = bound();
      std::tie(sa.slot, sa.binds) = Bind(rule.assignments[i].var);
      out.push_back(sa);
    }
    return out;
  }

  // The slot bound to `var`, or -1 when nothing has bound it yet.
  int32_t SlotOf(const std::string& var) const {
    auto it = slot_of_.find(var);
    return it == slot_of_.end() ? -1 : static_cast<int32_t>(it->second);
  }

  uint32_t bound() const { return static_cast<uint32_t>(slot_of_.size()); }

 private:
  // (slot, true) for a first binding; (existing slot, false) otherwise.
  std::pair<uint32_t, bool> Bind(const std::string& var) {
    auto [it, fresh] = slot_of_.emplace(var, bound());
    if (fresh) plan_.slot_vars.push_back(var);
    return {it->second, fresh};
  }

  RulePlan& plan_;
  std::map<std::string, uint32_t> slot_of_;
};

void CompileSlots(const Rule& rule, RulePlan& plan) {
  SlotCompiler c(plan);
  plan.event_ops = c.AtomOps(rule.EventAtom());
  plan.pre_slot_assignments = c.AssignmentOps(rule, plan.pre_assignments);
  plan.pre_constraint_slots = c.bound();
  for (PlanStep& step : plan.steps) {
    const Atom& atom = rule.atoms[step.atom_index];
    // The key reads slots bound by earlier steps: compile it before this
    // atom's own bindings.
    for (size_t col : step.bound_columns) {
      const Term& t = atom.args[col];
      int32_t slot = t.is_var() ? c.SlotOf(t.var) : -1;
      DPC_CHECK(!t.is_var() || slot >= 0);  // bound_columns are bound
      step.key_slots.push_back(slot);
    }
    step.ops = c.AtomOps(atom);
    step.slot_assignments = c.AssignmentOps(rule, step.assignments);
    step.constraint_slots = c.bound();
  }
  for (const Term& t : rule.head.args) {
    plan.head_slots.push_back(t.is_var() ? c.SlotOf(t.var) : -1);
  }
}

}  // namespace

bool RulePlan::HasCrossProduct() const {
  for (const PlanStep& s : steps) {
    if (s.cross_product) return true;
  }
  return false;
}

std::string RulePlan::ToString(const Rule& rule) const {
  std::string out = rule.EventAtom().relation;
  for (const PlanStep& s : steps) {
    out += " -> " + rule.atoms[s.atom_index].relation;
    if (s.bound_columns.empty()) {
      out += s.cross_product ? "[xprod]" : "[scan]";
    } else {
      out += IndexSignatureToString(s.bound_columns);
    }
  }
  if (never_fires) out += " (never fires)";
  return out;
}

RulePlan PlanRule(const Rule& rule) {
  RulePlan plan;
  plan.rule_id = rule.id;

  // Constant folding, mirroring the W401/W402 constraint pass: seed an
  // environment from assignments whose right-hand sides fold (in body
  // order), then fold each constraint. Always-true constraints leave the
  // plan; an always-false one makes the rule never fire.
  const FunctionRegistry no_functions;
  Bindings fold_env;
  for (const Assignment& asn : rule.assignments) {
    if (fold_env.count(asn.var) > 0) continue;
    Result<Value> v = EvalExpr(*asn.expr, fold_env, no_functions);
    if (v.ok()) fold_env.emplace(asn.var, std::move(v).value());
  }
  Scheduler sched(rule);
  for (size_t i = 0; i < rule.constraints.size(); ++i) {
    Result<Value> v = EvalExpr(*rule.constraints[i].expr, fold_env,
                               no_functions);
    if (!v.ok()) continue;
    if (v->Truthy()) {
      plan.folded_constraints.push_back(i);
      sched.con_placed[i] = true;  // never emitted into the plan
    } else {
      plan.never_fires = true;
    }
  }

  for (const Term& t : rule.EventAtom().args) {
    if (t.is_var()) sched.bound.insert(t.var);
  }
  sched.PlaceReady(plan.pre_assignments, plan.pre_constraints);

  // Greedy join ordering: at each position probe the condition atom with
  // the most bound columns (ties: earliest in body order, so plans are
  // deterministic and degenerate to textual order when nothing differs).
  std::vector<size_t> remaining;
  for (size_t i = 0; i < rule.atoms.size(); ++i) {
    if (i != rule.event_index) remaining.push_back(i);
  }
  while (!remaining.empty()) {
    size_t best_pos = 0;
    IndexSignature best_cols =
        BoundColumnsOf(rule.atoms[remaining[0]], sched.bound);
    for (size_t p = 1; p < remaining.size(); ++p) {
      IndexSignature cols =
          BoundColumnsOf(rule.atoms[remaining[p]], sched.bound);
      if (cols.size() > best_cols.size()) {
        best_pos = p;
        best_cols = std::move(cols);
      }
    }
    PlanStep step;
    step.atom_index = remaining[best_pos];
    step.bound_columns = std::move(best_cols);
    step.cross_product = step.bound_columns.empty() && !plan.steps.empty();
    remaining.erase(remaining.begin() + best_pos);
    for (const Term& t : rule.atoms[step.atom_index].args) {
      if (t.is_var()) sched.bound.insert(t.var);
    }
    sched.PlaceReady(step.assignments, step.constraints);
    plan.steps.push_back(std::move(step));
  }

  if (plan.steps.empty()) {
    sched.PlaceLeftovers(plan.pre_assignments, plan.pre_constraints);
  } else {
    sched.PlaceLeftovers(plan.steps.back().assignments,
                         plan.steps.back().constraints);
  }

  CompileSlots(rule, plan);
  plan.body_order.resize(plan.steps.size());
  std::iota(plan.body_order.begin(), plan.body_order.end(), size_t{0});
  std::sort(plan.body_order.begin(), plan.body_order.end(),
            [&](size_t a, size_t b) {
              return plan.steps[a].atom_index < plan.steps[b].atom_index;
            });

  // Batchability: whether step 0's probe key reads straight off the event.
  if (!plan.steps.empty() && !plan.steps[0].bound_columns.empty()) {
    const Atom& first = rule.atoms[plan.steps[0].atom_index];
    const Atom& event_atom = rule.EventAtom();
    plan.batch_first_key = true;
    for (size_t col : plan.steps[0].bound_columns) {
      const Term& t = first.args[col];
      if (!t.is_var()) {
        plan.first_key_event_pos.push_back(-1);
        plan.first_key_constants.push_back(t.constant);
        continue;
      }
      // A variable bound by a pre-assignment (not an event position)
      // defeats the direct key read.
      int pos = -1;
      for (size_t p = 0; p < event_atom.args.size(); ++p) {
        if (event_atom.args[p].is_var() && event_atom.args[p].var == t.var) {
          pos = static_cast<int>(p);
          break;
        }
      }
      if (pos < 0) {
        plan.batch_first_key = false;
        break;
      }
      plan.first_key_event_pos.push_back(pos);
      plan.first_key_constants.emplace_back();  // keeps vectors aligned
    }
    if (!plan.batch_first_key) {
      plan.first_key_event_pos.clear();
      plan.first_key_constants.clear();
    }
  }
  return plan;
}

ProgramPlan PlanRules(const std::vector<Rule>& rules) {
  ProgramPlan plan;
  plan.rules.reserve(rules.size());
  for (const Rule& rule : rules) {
    RulePlan rp = PlanRule(rule);
    for (const PlanStep& step : rp.steps) {
      if (step.bound_columns.empty()) continue;
      plan.index_signatures[rule.atoms[step.atom_index].relation].insert(
          step.bound_columns);
    }
    plan.rules.push_back(std::move(rp));
  }
  return plan;
}

ProgramPlan PlanProgram(const Program& program) {
  return PlanRules(program.rules());
}

RuleExecutor::RuleExecutor(const Rule& rule, const RulePlan& plan,
                           const Database& db, const FunctionRegistry& fns)
    : rule_(rule),
      plan_(plan),
      db_(db),
      fns_(fns),
      slots_(plan.slot_vars.size(), nullptr),
      depth_(plan.steps.size()) {}

// MatchAtom over the precompiled ops; the relation check is the caller's
// (a table only holds its own relation's tuples).
bool RuleExecutor::Unify(const Atom& atom, const std::vector<SlotOp>& ops,
                         const Tuple& tuple) {
  if (tuple.arity() != ops.size()) return false;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Value& v = tuple.at(i);
    switch (ops[i].kind) {
      case SlotOp::Kind::kBind:
        slots_[ops[i].slot] = &v;
        break;
      case SlotOp::Kind::kCheckSlot:
        if (*slots_[ops[i].slot] != v) return false;
        break;
      case SlotOp::Kind::kCheckConst:
        if (atom.args[i].constant != v) return false;
        break;
    }
  }
  return true;
}

Result<Value> RuleExecutor::Eval(const Expr& expr, uint32_t readable) const {
  return EvalExprWith(
      expr,
      [&](const std::string& var) -> const Value* {
        for (uint32_t s = 0; s < readable; ++s) {
          if (plan_.slot_vars[s] == var) return slots_[s];
        }
        return nullptr;
      },
      fns_);
}

Result<bool> RuleExecutor::Apply(
    const std::vector<size_t>& assignments,
    const std::vector<SlotAssignment>& slot_assignments,
    const std::vector<size_t>& constraints, uint32_t constraint_slots) {
  for (size_t k = 0; k < assignments.size(); ++k) {
    const SlotAssignment& sa = slot_assignments[k];
    DPC_ASSIGN_OR_RETURN(
        Value v, Eval(*rule_.assignments[assignments[k]].expr, sa.bound));
    if (!sa.binds) {
      if (*slots_[sa.slot] != v) return false;
      continue;
    }
    if (computed_.empty()) computed_.resize(slots_.size());
    computed_[sa.slot] = std::move(v);
    slots_[sa.slot] = &computed_[sa.slot];
  }
  for (size_t i : constraints) {
    DPC_ASSIGN_OR_RETURN(Value v,
                         Eval(*rule_.constraints[i].expr, constraint_slots));
    if (!v.Truthy()) return false;
  }
  return true;
}

Status RuleExecutor::AppendFiring() {
  const Atom& head = rule_.head;
  std::vector<Value> values;
  values.reserve(head.args.size());
  for (size_t i = 0; i < head.args.size(); ++i) {
    const Term& t = head.args[i];
    int32_t slot = plan_.head_slots[i];
    if (slot >= 0) {
      values.push_back(*slots_[static_cast<size_t>(slot)]);
    } else if (!t.is_var()) {
      values.push_back(t.constant);
    } else {
      return Status::InvalidArgument("unbound variable " + t.var +
                                     " in atom " + head.relation);
    }
  }
  RuleFiring firing;
  firing.head = Tuple(head.relation, std::move(values));
  firing.slow_tuples.reserve(depth_.size());
  for (size_t step : plan_.body_order) {
    firing.slow_tuples.push_back(*depth_[step].joined);
  }
  out_->push_back(std::move(firing));
  return Status::OK();
}

Status RuleExecutor::Join(size_t idx) {
  if (idx == plan_.steps.size()) return AppendFiring();
  const PlanStep& step = plan_.steps[idx];
  const Atom& atom = rule_.atoms[step.atom_index];
  Depth& d = depth_[idx];

  const std::vector<const TupleRef*>* candidates = &d.candidates;
  if (idx == 0 && first_candidates_ != nullptr) {
    candidates = first_candidates_;
  } else {
    if (!d.resolved) {
      d.table = db_.Find(atom.relation);
      if (d.table != nullptr && !step.bound_columns.empty()) {
        d.index = &d.table->IndexFor(step.bound_columns);
      }
      d.resolved = true;
    }
    if (d.table == nullptr) return Status::OK();  // relation has no table
    d.candidates.clear();
    if (d.index == nullptr) {
      d.table->ForEachRef([&](const TupleRef& t) {
        d.candidates.push_back(&t);
        return true;
      });
    } else {
      Fnv1a key;
      for (size_t k = 0; k < step.key_slots.size(); ++k) {
        int32_t slot = step.key_slots[k];
        const Value& v = slot >= 0
                             ? *slots_[static_cast<size_t>(slot)]
                             : atom.args[step.bound_columns[k]].constant;
        v.HashInto(key);
      }
      d.table->CollectFromIndex(*d.index, key.hash(), d.candidates);
    }
  }

  for (const TupleRef* candidate : *candidates) {
    // Full unification re-verifies the probed columns: the index matches
    // on hashes, and repeated/unbound columns still need binding.
    if (!Unify(atom, step.ops, **candidate)) continue;
    DPC_ASSIGN_OR_RETURN(bool keep,
                         Apply(step.assignments, step.slot_assignments,
                               step.constraints, step.constraint_slots));
    if (!keep) continue;
    d.joined = candidate;
    DPC_RETURN_NOT_OK(Join(idx + 1));
  }
  return Status::OK();
}

Status RuleExecutor::Execute(
    const Tuple& event, const std::vector<const TupleRef*>* first_candidates,
    std::vector<RuleFiring>& out) {
  if (plan_.never_fires) return Status::OK();
  if (event.relation() != rule_.EventAtom().relation ||
      !Unify(rule_.EventAtom(), plan_.event_ops, event)) {
    return Status::OK();  // The event does not instantiate this trigger.
  }
  first_candidates_ = first_candidates;
  out_ = &out;
  DPC_ASSIGN_OR_RETURN(bool keep,
                       Apply(plan_.pre_assignments, plan_.pre_slot_assignments,
                             plan_.pre_constraints,
                             plan_.pre_constraint_slots));
  if (!keep) return Status::OK();
  return Join(0);
}

Result<std::vector<RuleFiring>> FireRulePlanned(const Rule& rule,
                                                const RulePlan& plan,
                                                const Tuple& event,
                                                const Database& db,
                                                const FunctionRegistry& fns) {
  std::vector<RuleFiring> out;
  RuleExecutor exec(rule, plan, db, fns);
  DPC_RETURN_NOT_OK(exec.Execute(event, nullptr, out));
  return out;
}

}  // namespace dpc
