#include "eval/domain_enum.h"

#include <algorithm>
#include <functional>
#include <string>

#include "ast/substitution.h"
#include "eval/exec_common.h"
#include "eval/executor.h"
#include "schema/adornment.h"

namespace ucqn {

namespace {

std::string CallKey(const std::string& relation, const AccessPattern& pattern,
                    const std::vector<std::optional<Term>>& inputs) {
  std::string key = relation + "^" + pattern.word();
  for (const auto& t : inputs) {
    key += "|";
    if (t.has_value()) key += t->ToString();
  }
  return key;
}

}  // namespace

DomainEnumResult EnumerateDomain(const Catalog& catalog, Source* source,
                                 const std::vector<Term>& seeds,
                                 const DomainEnumOptions& options) {
  DomainEnumResult result;
  for (const Term& t : seeds) {
    if (t.IsGround()) result.domain.insert(t);
  }
  std::set<std::string> already_called;

  bool changed = true;
  while (changed && !result.budget_exhausted) {
    changed = false;
    for (const RelationSchema* schema : catalog.Relations()) {
      for (const AccessPattern& pattern : schema->patterns()) {
        const std::vector<std::size_t> input_slots = pattern.InputSlots();
        // Enumerate assignments of current-domain values to input slots.
        std::vector<std::optional<Term>> inputs(pattern.arity());
        // Snapshot the domain so the iteration space is stable while new
        // values are harvested into result.domain.
        const std::vector<Term> snapshot(result.domain.begin(),
                                         result.domain.end());
        std::function<void(std::size_t)> assign = [&](std::size_t k) {
          if (result.budget_exhausted) return;
          if (k == input_slots.size()) {
            std::string key = CallKey(schema->name(), pattern, inputs);
            if (!already_called.insert(key).second) return;
            if (result.source_calls >= options.max_calls) {
              result.budget_exhausted = true;
              return;
            }
            ++result.source_calls;
            FetchResult fetched = source->Fetch(schema->name(), pattern, inputs);
            if (!fetched.ok()) {
              // Best-effort: a failed call contributes no values. Dropping
              // it keeps the domain sound (a subset of the reachable one).
              ++result.source_errors;
              return;
            }
            for (const Tuple& tuple : fetched.tuples) {
              for (const Term& value : tuple) {
                if (result.domain.insert(value).second) changed = true;
              }
            }
            return;
          }
          for (const Term& value : snapshot) {
            inputs[input_slots[k]] = value;
            assign(k + 1);
          }
        };
        assign(0);
      }
    }
  }
  return result;
}

namespace {

// Evaluates one dismissed disjunct with domain assistance: the literals are
// processed answerable-part-first, then the unanswerable positives, then
// the unanswerable negatives; any input-slot variable that is still
// unbound ranges over the enumerated domain.
class DomainAssistedEvaluator {
 public:
  DomainAssistedEvaluator(const Catalog& catalog, Source* source,
                          const std::set<Term>& domain,
                          std::uint64_t max_calls, std::uint64_t* calls,
                          std::uint64_t* errors)
      : catalog_(catalog),
        source_(source),
        domain_(domain.begin(), domain.end()),
        max_calls_(max_calls),
        calls_(calls),
        errors_(errors) {}

  void Evaluate(const DisjunctPlan& plan, std::set<Tuple>* out) {
    if (!plan.answerable.has_value()) return;  // unsatisfiable disjunct
    std::vector<Literal> order = plan.answerable->body();
    for (const Literal& l : plan.unanswerable) {
      if (l.positive()) order.push_back(l);
    }
    for (const Literal& l : plan.unanswerable) {
      if (l.negative()) order.push_back(l);
    }
    std::vector<Substitution> bindings(1);
    for (const Literal& literal : order) {
      std::vector<Substitution> next;
      for (const Substitution& binding : bindings) {
        Step(literal, binding, &next);
      }
      bindings = std::move(next);
      if (bindings.empty()) return;
    }
    for (const Substitution& binding : bindings) {
      Tuple head = binding.Apply(plan.original.head_terms());
      bool ground = std::all_of(head.begin(), head.end(),
                                [](const Term& t) { return t.IsGround(); });
      if (ground) out->insert(std::move(head));
    }
  }

 private:
  // Processes one literal under one binding, appending extended bindings.
  void Step(const Literal& literal, const Substitution& binding,
            std::vector<Substitution>* next) {
    const RelationSchema* schema = catalog_.Find(literal.relation());
    if (schema == nullptr || schema->patterns().empty()) return;
    // Pick the pattern needing the fewest domain-enumerated variables.
    const AccessPattern* best = nullptr;
    std::size_t best_unbound = 0;
    for (const AccessPattern& p : schema->patterns()) {
      if (p.arity() != literal.args().size()) continue;
      std::size_t unbound = 0;
      for (std::size_t j = 0; j < p.arity(); ++j) {
        if (p.IsInputSlot(j) &&
            !binding.Apply(literal.args()[j]).IsGround()) {
          ++unbound;
        }
      }
      if (best == nullptr || unbound < best_unbound ||
          (unbound == best_unbound && p.InputCount() > best->InputCount())) {
        best = &p;
        best_unbound = unbound;
      }
    }
    if (best == nullptr) return;
    EnumerateAndFetch(literal, *best, binding, next);
  }

  void EnumerateAndFetch(const Literal& literal, const AccessPattern& pattern,
                         const Substitution& binding,
                         std::vector<Substitution>* next) {
    // Collect the distinct unbound variables sitting in input slots (for a
    // negative literal: all unbound variables — the probe needs a fully
    // ground tuple).
    std::vector<Term> to_enumerate;
    for (std::size_t j = 0; j < literal.args().size(); ++j) {
      const Term value = binding.Apply(literal.args()[j]);
      const bool needs_value = literal.negative() || pattern.IsInputSlot(j);
      if (needs_value && !value.IsGround() &&
          std::find(to_enumerate.begin(), to_enumerate.end(), value) ==
              to_enumerate.end()) {
        to_enumerate.push_back(value);
      }
    }
    std::function<void(std::size_t, const Substitution&)> assign =
        [&](std::size_t k, const Substitution& current) {
          if (*calls_ >= max_calls_) return;
          if (k == to_enumerate.size()) {
            Fetch(literal, pattern, current, next);
            return;
          }
          for (const Term& value : domain_) {
            Substitution extended = current;
            if (!extended.Bind(to_enumerate[k], value)) continue;
            assign(k + 1, extended);
          }
        };
    assign(0, binding);
  }

  void Fetch(const Literal& literal, const AccessPattern& pattern,
             const Substitution& binding, std::vector<Substitution>* next) {
    ++*calls_;
    // A failed call drops the binding in both polarities: claiming a
    // positive match or a verified absence without source confirmation
    // would break the underestimate's soundness guarantee.
    std::string error;
    if (!ExtendRow(literal, pattern, binding, source_, next, &error)) {
      ++*errors_;
    }
  }

  const Catalog& catalog_;
  Source* source_;
  std::vector<Term> domain_;
  std::uint64_t max_calls_;
  std::uint64_t* calls_;
  std::uint64_t* errors_;
};

}  // namespace

ImprovedUnderestimate ImproveUnderestimate(const UnionQuery& q,
                                           const Catalog& catalog,
                                           Source* source,
                                           const DomainEnumOptions& options) {
  ImprovedUnderestimate result;
  PlanStarResult plans = PlanStar(q, catalog);
  ExecutionResult base = Execute(plans.under, catalog, source);
  if (!base.ok) {
    result.error = std::move(base.error);
    return result;
  }
  result.ok = true;
  result.tuples = std::move(base.tuples);

  // Seed dom(x) with the query's own constants (null is not a source value).
  std::vector<Term> seeds;
  for (const ConjunctiveQuery& d : q.disjuncts()) {
    for (const Term& c : d.Constants()) {
      if (!c.IsNull()) seeds.push_back(c);
    }
  }
  result.domain = EnumerateDomain(catalog, source, seeds, options);

  DomainAssistedEvaluator evaluator(catalog, source, result.domain.domain,
                                    options.max_calls,
                                    &result.evaluation_calls,
                                    &result.evaluation_errors);
  for (const DisjunctPlan& plan : plans.disjuncts) {
    if (plan.unanswerable.empty()) continue;  // already exact in Q^u
    std::set<Tuple> extra;
    evaluator.Evaluate(plan, &extra);
    for (const Tuple& tuple : extra) {
      if (result.tuples.insert(tuple).second) result.gained.insert(tuple);
    }
  }
  return result;
}

}  // namespace ucqn
