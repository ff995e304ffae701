#include "schema/adornment.h"

#include "cost/cost_model.h"
#include "util/logging.h"
#include "util/strings.h"

namespace ucqn {

void BindVariables(const Literal& literal, BoundVariables* bound) {
  for (const Term& t : literal.args()) {
    if (t.IsVariable()) bound->insert(t.name());
  }
}

bool AllVariablesBound(const Literal& literal, const BoundVariables& bound) {
  for (const Term& t : literal.args()) {
    if (t.IsVariable() && bound.count(t.name()) == 0) return false;
  }
  return true;
}

std::vector<Term> InputVariables(const Literal& literal,
                                 const AccessPattern& pattern) {
  std::vector<Term> vars;
  const std::vector<Term>& args = literal.args();
  for (std::size_t j = 0; j < args.size() && j < pattern.arity(); ++j) {
    if (pattern.IsInputSlot(j) && args[j].IsVariable()) {
      vars.push_back(args[j]);
    }
  }
  return vars;
}

bool PatternUsable(const Literal& literal, const AccessPattern& pattern,
                   const BoundVariables& bound) {
  if (pattern.arity() != literal.atom().arity()) return false;
  const std::vector<Term>& args = literal.args();
  for (std::size_t j = 0; j < args.size(); ++j) {
    if (pattern.IsInputSlot(j) && args[j].IsVariable() &&
        bound.count(args[j].name()) == 0) {
      return false;
    }
  }
  return true;
}

std::optional<AccessPattern> ChoosePattern(const Catalog& catalog,
                                           const Literal& literal,
                                           const BoundVariables& bound,
                                           PatternPreference preference) {
  // Preference-only choice is the static cost model's pattern ranking;
  // delegate so every adornment decision flows through the one cost-layer
  // call site (cost/cost_model.h).
  return ChoosePattern(catalog, literal, bound, StaticCostModel(preference));
}

bool CanExecuteNext(const Catalog& catalog, const Literal& literal,
                    const BoundVariables& bound) {
  // ChoosePattern(...).has_value() without pricing a single pattern.
  const RelationSchema* schema = catalog.Find(literal.relation());
  if (schema == nullptr || schema->arity() != literal.atom().arity()) {
    return false;
  }
  if (literal.negative() && !AllVariablesBound(literal, bound)) return false;
  for (const AccessPattern& pattern : schema->patterns()) {
    if (PatternUsable(literal, pattern, bound)) return true;
  }
  return false;
}

std::optional<std::vector<AccessPattern>> ComputeAdornments(
    const ConjunctiveQuery& q, const Catalog& catalog) {
  // The paper considers `true` (empty body) non-executable.
  if (q.IsTrueQuery()) return std::nullopt;
  std::vector<AccessPattern> adornments;
  adornments.reserve(q.body().size());
  BoundVariables bound;
  for (const Literal& literal : q.body()) {
    std::optional<AccessPattern> pattern =
        ChoosePattern(catalog, literal, bound);
    if (!pattern.has_value()) return std::nullopt;
    adornments.push_back(*pattern);
    if (literal.positive()) BindVariables(literal, &bound);
  }
  // Every variable of Q — including head variables — must be bound by the
  // body; otherwise Q is unsafe and thus not executable.
  for (const Term& v : q.AllVariables()) {
    if (bound.count(v.name()) == 0) return std::nullopt;
  }
  return adornments;
}

bool IsExecutable(const ConjunctiveQuery& q, const Catalog& catalog) {
  return ComputeAdornments(q, catalog).has_value();
}

bool IsExecutable(const UnionQuery& q, const Catalog& catalog) {
  for (const ConjunctiveQuery& disjunct : q.disjuncts()) {
    if (!IsExecutable(disjunct, catalog)) return false;
  }
  return true;  // `false` (empty union) is vacuously executable
}

std::string AdornedToString(const ConjunctiveQuery& q,
                            const std::vector<AccessPattern>& adornments) {
  UCQN_CHECK(adornments.size() == q.body().size());
  std::vector<std::string> head_parts;
  for (const Term& t : q.head_terms()) head_parts.push_back(t.ToString());
  std::string out = q.head_name() + "(" + StrJoin(head_parts, ", ") + ")";
  if (q.body().empty()) return out + ".";
  out += " :- ";
  std::vector<std::string> body_parts;
  for (std::size_t i = 0; i < q.body().size(); ++i) {
    const Literal& l = q.body()[i];
    std::vector<std::string> args;
    for (const Term& t : l.args()) args.push_back(t.ToString());
    std::string text = l.relation() + "^" + adornments[i].word() + "(" +
                       StrJoin(args, ", ") + ")";
    if (l.negative()) text = "not " + text;
    body_parts.push_back(std::move(text));
  }
  return out + StrJoin(body_parts, ", ") + ".";
}

}  // namespace ucqn
