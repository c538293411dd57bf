// Differential oracle for the batch evaluator (src/runtime/batch_eval.h):
// FireRuleBatched(events)[i] must equal FireRulePlanned(events[i]) for
// every batch member — same firings, same firing order, same joined slow
// tuples, same status — whatever path the batch takes (per-event
// execution, grouped first-key probes, duplicate memoization). Exercised
// over the two example applications and 100 seeded random DELPs.
#include "src/runtime/batch_eval.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/planner.h"
#include "src/apps/dns.h"
#include "src/apps/forwarding.h"
#include "src/ndlog/eval.h"
#include "src/ndlog/functions.h"
#include "src/ndlog/parser.h"
#include "src/util/rng.h"

namespace dpc {
namespace {

// A firing rendered to a canonical string: head plus joined slow tuples.
// NOT sorted — the batch contract is order-identical results, so the
// comparison must see the emission order.
std::vector<std::string> Canon(const std::vector<RuleFiring>& firings) {
  std::vector<std::string> out;
  out.reserve(firings.size());
  for (const RuleFiring& f : firings) {
    std::string s = f.head.ToString();
    for (const TupleRef& t : f.slow_tuples) s += " | " + t->ToString();
    out.push_back(std::move(s));
  }
  return out;
}

// Evaluates every rule over `events` both ways — one FireRuleBatched call
// per (rule, whole event list) vs one FireRulePlanned call per (rule,
// event) — and asserts entry-by-entry identical firing sequences and
// statuses. Returns total planned firings so callers can assert coverage.
size_t CheckOracle(const std::vector<Rule>& rules,
                   const std::vector<RulePlan>& plans, const Database& db,
                   const std::vector<Tuple>& events,
                   const FunctionRegistry& fns) {
  size_t total_firings = 0;
  std::vector<const Tuple*> batch;
  batch.reserve(events.size());
  for (const Tuple& ev : events) batch.push_back(&ev);
  for (size_t r = 0; r < rules.size(); ++r) {
    const Rule& rule = rules[r];
    std::vector<BatchEventFirings> batched =
        FireRuleBatched(rule, plans[r], batch, db, fns);
    EXPECT_EQ(batched.size(), events.size());
    if (batched.size() != events.size()) continue;
    for (size_t i = 0; i < events.size(); ++i) {
      auto planned = FireRulePlanned(rule, plans[r], events[i], db, fns);
      EXPECT_EQ(planned.ok(), batched[i].status.ok())
          << rule.ToString() << "\nevent " << events[i].ToString()
          << "\nplanned: " << planned.status().ToString()
          << "\nbatched: " << batched[i].status.ToString();
      if (!planned.ok() || !batched[i].status.ok()) continue;
      EXPECT_EQ(Canon(*planned), Canon(FiringsOf(batched, i)))
          << rule.ToString() << "\nevent " << events[i].ToString();
      total_firings += planned->size();
    }
  }
  return total_firings;
}

TEST(BatchEvalOracleTest, ForwardingBatchMatchesPlanned) {
  auto program = apps::MakeForwardingProgram();
  ASSERT_TRUE(program.ok());
  ProgramPlan plan = PlanProgram(*program);

  Database db;
  for (int d = 0; d < 4; ++d) {
    for (int n = 0; n < 3; ++n) {
      if ((d + n) % 2 == 0) continue;  // leave holes: some probes miss
      db.Insert(Tuple::Make("route", 0, {Value::Int(d), Value::Int(n)}));
    }
  }
  std::vector<Tuple> events;
  for (int s = 0; s < 2; ++s) {
    for (int d = 0; d < 5; ++d) {
      events.push_back(Tuple::Make(
          "packet", 0, {Value::Int(s), Value::Int(d), Value::Int(42)}));
    }
  }
  // Duplicates on purpose: the memoized entries must resolve to the same
  // results as fresh evaluation.
  for (int rep = 0; rep < 3; ++rep) {
    events.push_back(Tuple::Make(
        "packet", 0, {Value::Int(0), Value::Int(1), Value::Int(42)}));
  }
  size_t firings = CheckOracle(program->rules(), plan.rules, db, events,
                               FunctionRegistry{});
  EXPECT_GT(firings, 0u);
}

TEST(BatchEvalOracleTest, DnsBatchMatchesPlanned) {
  auto program = apps::MakeDnsProgram();
  ASSERT_TRUE(program.ok());
  ProgramPlan plan = PlanProgram(*program);
  FunctionRegistry fns = DefaultFunctions();

  Database db;
  db.Insert(Tuple::Make("rootServer", 0, {Value::Int(1)}));
  const std::vector<std::string> domains = {"com", "example.com", "org"};
  for (size_t d = 0; d < domains.size(); ++d) {
    db.Insert(Tuple::Make("nameServer", 0,
                          {Value::Str(domains[d]),
                           Value::Int(static_cast<int64_t>(d + 1))}));
  }
  const std::vector<std::string> urls = {"a.example.com", "b.org", "c.com",
                                         "miss.net"};
  for (size_t u = 0; u + 1 < urls.size(); ++u) {
    db.Insert(Tuple::Make("addressRecord", 0,
                          {Value::Str(urls[u]),
                           Value::Str("10.0.0." + std::to_string(u))}));
  }

  // Same-relation batches, as the runtime drains them; each checked
  // against per-event planned evaluation.
  for (const char* shape : {"url", "request", "dnsResult"}) {
    std::vector<Tuple> events;
    for (const std::string& url : urls) {
      if (std::string(shape) == "url") {
        events.push_back(
            Tuple::Make("url", 0, {Value::Str(url), Value::Int(9)}));
      } else if (std::string(shape) == "request") {
        events.push_back(Tuple::Make(
            "request", 0, {Value::Str(url), Value::Int(5), Value::Int(9)}));
      } else {
        events.push_back(Tuple::Make(
            "dnsResult", 0,
            {Value::Str(url), Value::Str("10.9.9.9"), Value::Int(5),
             Value::Int(9)}));
      }
    }
    events.insert(events.end(), events.begin(), events.begin() + 2);  // dups
    CheckOracle(program->rules(), plan.rules, db, events, fns);
  }
}

TEST(BatchEvalTest, MemoizedDuplicatesShareRepresentativeFirings) {
  auto rules = ParseRules(
      "r1 h(@L, A, B) :- e(@L, A), s(@L, A, B).");
  ASSERT_TRUE(rules.ok());
  ProgramPlan plan = PlanRules(*rules);

  Database db;
  for (int a = 0; a < 8; ++a) {
    db.Insert(Tuple::Make("s", 0, {Value::Int(a), Value::Int(a * 10)}));
  }
  std::vector<Tuple> events;
  for (int i = 0; i < 12; ++i) {
    events.push_back(Tuple::Make("e", 0, {Value::Int(i % 3)}));
  }
  std::vector<const Tuple*> batch;
  for (const Tuple& ev : events) batch.push_back(&ev);
  auto out = FireRuleBatched(rules->front(), plan.rules[0], batch, db,
                             FunctionRegistry{});
  ASSERT_EQ(out.size(), events.size());
  size_t duplicates = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(out[i].status.ok());
    const std::vector<RuleFiring>& firings = FiringsOf(out, i);
    ASSERT_EQ(firings.size(), 1u);
    EXPECT_EQ(firings.front().head,
              Tuple::Make("h", 0, {Value::Int(i % 3),
                                   Value::Int((i % 3) * 10)}));
    if (out[i].same_as >= 0) {
      ++duplicates;
      const BatchEventFirings& rep = out[static_cast<size_t>(out[i].same_as)];
      EXPECT_LT(out[i].same_as, static_cast<int32_t>(i));
      EXPECT_EQ(rep.same_as, -1);  // one hop only: reps are never duplicates
      EXPECT_TRUE(rep.shared);
      EXPECT_TRUE(out[i].firings.empty());
    }
  }
  // 3 distinct events, 12 members: 9 must have been memoized.
  EXPECT_EQ(duplicates, 9u);
}

// Random DELP generator (as planned_eval_oracle_test's): rules mix bound
// joins, scans, cross products, assignment chains, and foldable
// constraints — covering pure joins, scans, and pushed-down filters.
std::string GenerateDelp(Rng& rng, int* num_rules_out) {
  int num_rules = 1 + static_cast<int>(rng.NextBelow(3));
  std::string src;
  for (int i = 1; i <= num_rules; ++i) {
    std::vector<std::string> conds;
    std::string tag = std::to_string(i);
    bool has_sa = false;
    int num_atoms = 1 + static_cast<int>(rng.NextBelow(3));
    std::vector<int> kinds = {0, 1, 2, 3};
    for (int k = 0; k < num_atoms; ++k) {
      size_t pick = rng.NextBelow(kinds.size());
      int kind = kinds[pick];
      kinds.erase(kinds.begin() + static_cast<long>(pick));
      switch (kind) {
        case 0:
          conds.push_back("sa" + tag + "(@L, A, C" + tag + ")");
          has_sa = true;
          break;
        case 1:
          conds.push_back("sb" + tag + "(@L, B)");
          break;
        case 2:
          conds.push_back("sc" + tag + "(@M" + tag + ", E" + tag + ")");
          break;
        default:
          conds.push_back("sd" + tag + "(@L, X" + tag + ", Y" + tag + ")");
          break;
      }
    }
    std::vector<std::string> extras;
    if (rng.NextBelow(2) == 0) {
      extras.push_back("Z" + tag + " := A + B");
    }
    switch (rng.NextBelow(5)) {
      case 0: extras.push_back("A >= 1"); break;
      case 1: extras.push_back("B < 2"); break;
      case 2: extras.push_back("0 <= 1"); break;  // folds out (W401)
      case 3: extras.push_back("1 < 0"); break;   // never fires (W402)
      default: break;
    }
    if (has_sa && rng.NextBelow(2) == 0) {
      extras.push_back("C" + tag + " != B");
    }

    std::string a_next = rng.NextBelow(2) == 0 ? "A" : "B";
    std::string b_next;
    switch (rng.NextBelow(3)) {
      case 0: b_next = "B"; break;
      case 1: b_next = "A"; break;
      default:
        b_next = has_sa ? "C" + tag : "A";
        break;
    }
    std::string rule = "r" + tag + " e" + tag + "(@L, " + a_next + ", " +
                       b_next + ") :- e" + std::to_string(i - 1) +
                       "(@L, A, B)";
    for (const std::string& c : conds) rule += ", " + c;
    for (const std::string& x : extras) rule += ", " + x;
    rule += ".";
    src += rule + "\n";
  }
  *num_rules_out = num_rules;
  return src;
}

class BatchEvalRandomOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchEvalRandomOracleTest, RandomDelpBatchMatchesPlanned) {
  Rng rng(GetParam() * 0x9E3779B97F4A7C15ULL + 29);
  int num_rules = 0;
  std::string source = GenerateDelp(rng, &num_rules);

  auto rules = ParseRules(source);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString() << "\n" << source;
  ProgramPlan plan = PlanRules(*rules);
  ASSERT_EQ(plan.rules.size(), rules->size());

  Database db;
  for (const Rule& rule : *rules) {
    for (const Atom* atom : rule.ConditionAtoms()) {
      size_t arity = atom->args.size();
      size_t combos = 1;
      for (size_t a = 0; a < arity; ++a) combos *= 3;
      for (size_t c = 0; c < combos; ++c) {
        std::vector<Value> vals;
        size_t rem = c;
        for (size_t a = 0; a < arity; ++a) {
          vals.push_back(Value::Int(static_cast<int64_t>(rem % 3)));
          rem /= 3;
        }
        db.Insert(Tuple(atom->relation, std::move(vals)));
      }
    }
  }

  // One same-relation batch per trigger relation, duplicates included —
  // exactly the batches the runtime's drain would form.
  for (int r = 0; r < num_rules; ++r) {
    std::vector<Tuple> events;
    for (int l = 0; l < 2; ++l) {
      for (int a = 0; a < 3; ++a) {
        for (int b = 0; b < 3; ++b) {
          events.push_back(Tuple::Make("e" + std::to_string(r), l,
                                       {Value::Int(a), Value::Int(b)}));
        }
      }
    }
    events.insert(events.end(), events.begin(), events.begin() + 6);
    CheckOracle(*rules, plan.rules, db, events, FunctionRegistry{});
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchEvalRandomOracleTest,
                         ::testing::Range<uint64_t>(1, 101));

}  // namespace
}  // namespace dpc
