#include "eval/domain_enum.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>

#include "eval/executor.h"
#include "runtime/source_stack.h"
#include "schema/adornment.h"

namespace ucqn {

namespace {

using SignatureSet = std::unordered_set<EncodedTuple, EncodedTupleHash>;

// Fills `wave` with the assignments of `values` to `pattern`'s input
// slots that are not in `called` yet (first slot most significant), and
// adds them to `called`. Stops at `cap` signatures: true when a further
// uncalled one was left out. A pattern without input slots has one
// signature.
bool NextWave(const AccessPattern& pattern,
              const std::vector<std::uint32_t>& values, std::uint64_t cap,
              SignatureSet* called, std::vector<EncodedTuple>* wave) {
  const std::vector<std::size_t> slots = pattern.InputSlots();
  if (!slots.empty() && values.empty()) return false;
  EncodedTuple signature(pattern.arity(), TermDictionary::kAbsentId);
  std::vector<std::size_t> digits(slots.size(), 0);
  while (true) {
    for (std::size_t k = 0; k < slots.size(); ++k) {
      signature[slots[k]] = values[digits[k]];
    }
    if (called->count(signature) == 0) {
      if (wave->size() == cap) return true;
      called->insert(signature);
      wave->push_back(signature);
    }
    // Odometer step: the last slot turns fastest.
    std::size_t k = slots.size();
    while (k > 0 && ++digits[k - 1] == values.size()) digits[--k] = 0;
    if (k == 0) return false;
  }
}

}  // namespace

DomainEnumResult EnumerateDomain(const Catalog& catalog, Source* source,
                                 const std::vector<Term>& seeds,
                                 const DomainEnumOptions& options) {
  TermDictionary& dict = TermDictionary::Global();
  DomainEnumResult result;
  for (const Term& t : seeds) {
    if (t.IsGround()) result.domain.insert(t);
  }
  std::map<std::pair<std::string, std::string>, SignatureSet> called;
  // The domain's ids in set order, a snapshot that keeps each wave's
  // iteration space stable while new values are harvested. The domain
  // only grows, so an equal size means an unchanged domain.
  std::vector<std::uint32_t> snapshot;

  bool changed = true;
  while (changed) {
    changed = false;
    for (const RelationSchema* schema : catalog.Relations()) {
      for (const AccessPattern& pattern : schema->patterns()) {
        if (snapshot.size() != result.domain.size()) {
          snapshot.clear();
          for (const Term& value : result.domain) {
            snapshot.push_back(dict.EncodeGround(value));
          }
        }
        std::vector<EncodedTuple> wave;
        result.budget_exhausted =
            NextWave(pattern, snapshot, options.max_calls - result.source_calls,
                     &called[{schema->name(), pattern.word()}], &wave);
        result.source_calls += wave.size();
        if (!wave.empty()) {
          for (const EncodedFetchResult& fetched : source->FetchEncoded(
                   schema->name(), pattern, wave, CallShape::kWave)) {
            if (!fetched.ok()) {
              // Best-effort: a failed call contributes no values. Dropping
              // it keeps the domain sound (a subset of the reachable one).
              ++result.source_errors;
              continue;
            }
            const EncodedRows& rows = *fetched.rows;
            for (std::size_t r = 0; r < rows.size(); ++r) {
              for (std::size_t j = 0; j < rows.arity(); ++j) {
                if (result.domain.insert(dict.DecodeTerm(rows.Row(r)[j]))
                        .second) {
                  changed = true;
                }
              }
            }
          }
        }
        if (result.budget_exhausted) return result;
      }
    }
  }
  return result;
}

namespace {

// The relation dom(x) is read under. The parser only produces
// identifiers, so no user relation can collide with it.
const char kDomRelation[] = "$dom";

// Answers dom(x) with the enumerated domain and forwards every other
// call to `inner`.
class DomainSource : public EncodedSource {
 public:
  DomainSource(Source* inner, SharedRows domain)
      : inner_(inner), domain_(std::move(domain)) {}

  std::vector<EncodedFetchResult> FetchEncoded(
      const std::string& relation, const AccessPattern& pattern,
      const std::vector<EncodedTuple>& signatures, CallShape shape) override {
    if (relation != kDomRelation) {
      return inner_->FetchEncoded(relation, pattern, signatures, shape);
    }
    return std::vector<EncodedFetchResult>(signatures.size(),
                                           EncodedFetchResult::Ok(domain_));
  }

 private:
  Source* inner_;
  SharedRows domain_;
};

// Example 8's rewrite of a dismissed disjunct into an executable CQ¬: the
// answerable part, then the unanswerable positives, then the unanswerable
// negatives, each literal preceded by dom(v) for every distinct variable
// v it still needs — a positive literal those at the input slots of its
// pattern with the fewest unbound inputs (ties: more input slots, then
// declaration order), a negated one all of them. Boundness depends only
// on the position, so the placement is static, and the executor's
// ChoosePattern then picks that same pattern. Nullopt when the disjunct
// can gain nothing: some literal has no pattern of its arity, or a head
// variable occurs in no literal.
std::optional<ConjunctiveQuery> DomAssisted(const DisjunctPlan& plan,
                                            const Catalog& catalog) {
  std::vector<Literal> order = plan.answerable->body();
  for (const Literal& l : plan.unanswerable) {
    if (l.positive()) order.push_back(l);
  }
  for (const Literal& l : plan.unanswerable) {
    if (l.negative()) order.push_back(l);
  }
  std::vector<Literal> body;
  BoundVariables bound;
  auto unbound = [&bound](const Term& t) {
    return t.IsVariable() && bound.count(t.name()) == 0;
  };
  for (const Literal& literal : order) {
    const RelationSchema* schema = catalog.Find(literal.relation());
    if (schema == nullptr) return std::nullopt;
    const AccessPattern* best = nullptr;
    std::size_t best_unbound = 0;
    for (const AccessPattern& p : schema->patterns()) {
      if (p.arity() != literal.args().size()) continue;
      std::size_t count = 0;
      for (std::size_t slot : p.InputSlots()) {
        if (unbound(literal.args()[slot])) ++count;
      }
      if (best == nullptr || count < best_unbound ||
          (count == best_unbound && p.InputCount() > best->InputCount())) {
        best = &p;
        best_unbound = count;
      }
    }
    if (best == nullptr) return std::nullopt;
    for (std::size_t j = 0; j < literal.args().size(); ++j) {
      const Term& arg = literal.args()[j];
      if ((literal.negative() || best->IsInputSlot(j)) && unbound(arg)) {
        body.push_back(Literal::Positive(Atom(kDomRelation, {arg})));
        bound.insert(arg.name());
      }
    }
    body.push_back(literal);
    if (literal.positive()) BindVariables(literal, &bound);
  }
  if (std::any_of(plan.original.head_terms().begin(),
                  plan.original.head_terms().end(), unbound)) {
    return std::nullopt;
  }
  return ConjunctiveQuery(plan.original.head_name(),
                          plan.original.head_terms(), std::move(body));
}

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

  Catalog with_dom = catalog;
  with_dom.AddPattern(kDomRelation, "o");
  auto domain = std::make_shared<EncodedRows>(1);
  for (const Term& value : result.domain.domain) {
    const std::uint32_t id = TermDictionary::Global().EncodeGround(value);
    domain->Append(&id);
  }
  for (const DisjunctPlan& plan : plans.disjuncts) {
    // Unsatisfiable, or already exact in Q^u.
    if (!plan.answerable.has_value() || plan.unanswerable.empty()) continue;
    std::optional<ConjunctiveQuery> assisted = DomAssisted(plan, catalog);
    if (!assisted.has_value()) continue;
    // A budget of 0 would mean "uncapped" to the stack.
    if (result.evaluation_calls >= options.max_calls) {
      ++result.evaluation_errors;
      continue;
    }
    RuntimeOptions runtime;
    runtime.budget.max_calls = options.max_calls - result.evaluation_calls;
    SourceStack stack(source, runtime);
    // dom reads sit above the budget: they are neither counted nor capped.
    DomainSource dom(stack.source(), domain);
    ExecutionResult answers = Execute(*assisted, with_dom, &dom);
    result.evaluation_calls += stack.stats().source_calls;
    if (!answers.ok) {
      ++result.evaluation_errors;
      continue;
    }
    for (const Tuple& tuple : answers.tuples) {
      if (result.tuples.insert(tuple).second) result.gained.insert(tuple);
    }
  }
  return result;
}

}  // namespace ucqn
