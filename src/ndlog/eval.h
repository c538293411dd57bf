// Single-rule evaluation: the building block of pipelined semi-naïve
// evaluation (§3.1). Given an event tuple and the local database of
// slow-changing tables, FireRule produces every head tuple derivable by one
// application of the rule, together with the slow-changing tuples that
// joined (which become the provenance of the firing).
#ifndef DPC_NDLOG_EVAL_H_
#define DPC_NDLOG_EVAL_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/db/table.h"
#include "src/db/tuple.h"
#include "src/ndlog/ast.h"
#include "src/ndlog/functions.h"
#include "src/util/result.h"

namespace dpc {

// Variable name -> value environment built during matching.
using Bindings = std::unordered_map<std::string, Value>;

// Applies binary operator `op`. Arithmetic requires integer operands;
// comparisons work on either type (ordered lexicographically for strings).
Result<Value> EvalBinaryOp(Expr::Op op, const Value& lhs, const Value& rhs);

// Evaluates `expr`, resolving each variable through `lookup(name)`, which
// returns the bound value or nullptr. The one definition of expression
// semantics: EvalExpr (string-keyed Bindings) and the planner's slot
// executor (src/analysis/planner.h) both evaluate through it.
template <typename Lookup>
Result<Value> EvalExprWith(const Expr& expr, const Lookup& lookup,
                           const FunctionRegistry& fns) {
  switch (expr.kind) {
    case Expr::Kind::kConst:
      return expr.constant;
    case Expr::Kind::kVar: {
      const Value* v = lookup(expr.var);
      if (v == nullptr) {
        return Status::InvalidArgument("unbound variable " + expr.var);
      }
      return *v;
    }
    case Expr::Kind::kBinary: {
      DPC_ASSIGN_OR_RETURN(Value lhs, EvalExprWith(*expr.lhs, lookup, fns));
      DPC_ASSIGN_OR_RETURN(Value rhs, EvalExprWith(*expr.rhs, lookup, fns));
      return EvalBinaryOp(expr.op, lhs, rhs);
    }
    case Expr::Kind::kCall: {
      std::vector<Value> args;
      args.reserve(expr.args.size());
      for (const auto& a : expr.args) {
        DPC_ASSIGN_OR_RETURN(Value v, EvalExprWith(*a, lookup, fns));
        args.push_back(std::move(v));
      }
      return fns.Call(expr.fn, args);
    }
  }
  return Status::Internal("unhandled expression kind");
}

// Evaluates `expr` under `env`.
Result<Value> EvalExpr(const Expr& expr, const Bindings& env,
                       const FunctionRegistry& fns);

// Unifies `atom` against `tuple`. On success extends `env` (consistently
// with existing bindings) and returns true. `env` may be partially extended
// on failure; callers either pass a scratch copy or record the extensions
// in a trail (below) and roll them back.
bool MatchAtom(const Atom& atom, const Tuple& tuple, Bindings& env);

// As above, but appends the name of every variable newly bound by this
// call to `trail` (also on failure), so the caller can undo a failed or
// explored match with UndoTrail instead of copying the whole environment
// per candidate tuple.
bool MatchAtom(const Atom& atom, const Tuple& tuple, Bindings& env,
               std::vector<std::string>& trail);

// Removes from `env` every binding recorded in `trail` past `mark`, then
// truncates `trail` back to `mark`. Together with the trailing MatchAtom
// overload this gives join loops O(bindings-touched) rollback.
void UndoTrail(Bindings& env, std::vector<std::string>& trail, size_t mark);

// Instantiates `atom` under a complete `env`; fails if any variable is
// unbound.
Result<Tuple> InstantiateAtom(const Atom& atom, const Bindings& env);

// One derivation produced by a rule firing. The joined condition tuples
// are shared handles onto the database's own rows, so a firing costs no
// tuple copies and downstream consumers (recorders) see the rows' memoized
// identities.
struct RuleFiring {
  Tuple head;
  // The slow-changing condition tuples that joined, in body-atom order.
  std::vector<TupleRef> slow_tuples;
};

// Fires `rule` with `event` as the instance of the rule's event atom,
// joining condition atoms against `db` and applying assignments and
// constraints. Returns every derivation (possibly none).
//
// This is the naive reference evaluator: condition atoms in textual body
// order, each a full table scan, with assignments and constraints applied
// at the join leaves. The runtime executes compiled plans instead
// (FireRulePlanned, src/analysis/planner.h); tests and bench/eval_bench
// compare against this.
Result<std::vector<RuleFiring>> FireRule(const Rule& rule, const Tuple& event,
                                         const Database& db,
                                         const FunctionRegistry& fns);

}  // namespace dpc

#endif  // DPC_NDLOG_EVAL_H_
