#include "eval/planner.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "schema/adornment.h"

namespace ucqn {

namespace {

constexpr std::size_t kMaskBits = 64;

// A body's join structure as 64-bit masks, so the connectivity rule runs
// on bit operations instead of copies of BoundVariables. In a variable mask, bit v is the body's v-th distinct
// variable; in a literal set, bit i is body literal i.
struct BodyMasks {
  // False for a body with more than 64 distinct variables or literals:
  // the rule is then off and the planner is the plain greedy one.
  bool enabled = false;
  std::uint64_t positives = 0;  // literal set of the positive literals
  std::array<std::uint64_t, kMaskBits> vars{};  // per literal
  // The input-variable mask of every declared pattern of literal i's
  // relation sits at inputs[first[i]] .. inputs[first[i + 1]). A literal
  // whose relation is undeclared or of another arity has none.
  std::array<std::size_t, kMaskBits + 1> first{};
  std::vector<std::uint64_t> inputs;
};

std::uint64_t Bit(std::size_t i) { return std::uint64_t{1} << i; }

// Fills `masks` for `body`; leaves it disabled when the body is too wide.
void BuildBodyMasks(const std::vector<Literal>& body, const Catalog& catalog,
                    BodyMasks* masks) {
  if (body.size() > kMaskBits) return;
  std::array<const std::string*, kMaskBits> names{};  // bit -> variable
  std::size_t num_names = 0;
  masks->inputs.reserve(2 * body.size());
  for (std::size_t i = 0; i < body.size(); ++i) {
    const Literal& literal = body[i];
    const std::vector<Term>& args = literal.args();
    const std::size_t first = masks->inputs.size();
    masks->first[i] = first;
    const RelationSchema* schema = catalog.Find(literal.relation());
    if (schema != nullptr && schema->arity() == args.size()) {
      masks->inputs.resize(first + schema->patterns().size(), 0);
    }
    const std::size_t num_patterns = masks->inputs.size() - first;
    for (std::size_t j = 0; j < args.size(); ++j) {
      if (!args[j].IsVariable()) continue;
      std::size_t b = 0;
      while (b < num_names && *names[b] != args[j].name()) ++b;
      if (b == num_names) {
        if (b == kMaskBits) return;  // stays disabled
        names[num_names++] = &args[j].name();
      }
      masks->vars[i] |= Bit(b);
      for (std::size_t k = 0; k < num_patterns; ++k) {
        if (schema->patterns()[k].IsInputSlot(j)) {
          masks->inputs[first + k] |= Bit(b);
        }
      }
    }
    if (literal.positive()) masks->positives |= Bit(i);
  }
  masks->first[body.size()] = masks->inputs.size();
  masks->enabled = true;
}

// True if some pattern of positive literal `i` has its inputs in `bound`.
bool Callable(const BodyMasks& m, std::size_t i, std::uint64_t bound) {
  for (std::size_t k = m.first[i]; k < m.first[i + 1]; ++k) {
    if ((m.inputs[k] & ~bound) == 0) return true;
  }
  return false;
}

// The fixpoint: keeps adding any callable literal of `pending` (positive
// literals) that shares a variable with `bound`, or has none, and
// reports whether that reaches all of them.
bool Closes(const BodyMasks& m, std::uint64_t bound, std::uint64_t pending) {
  for (bool grew = true; grew && pending != 0;) {
    grew = false;
    for (std::uint64_t rest = pending; rest != 0; rest &= rest - 1) {
      const auto i = static_cast<std::size_t>(std::countr_zero(rest));
      if (m.vars[i] != 0 && (m.vars[i] & bound) == 0) continue;
      if (!Callable(m, i, bound)) continue;
      bound |= m.vars[i];
      pending &= ~Bit(i);
      grew = true;
    }
  }
  return pending == 0;
}

// True if, from `bound`, every literal of `pending` can still run without
// a Cartesian product. With nothing bound the first scan is not one, so
// each callable literal is tried as the entry point.
bool JoinsWithoutCartesian(const BodyMasks& m, std::uint64_t bound,
                           std::uint64_t pending) {
  if (bound != 0) return Closes(m, bound, pending);
  bool needs_entry = false;
  for (std::uint64_t rest = pending; rest != 0; rest &= rest - 1) {
    const auto i = static_cast<std::size_t>(std::countr_zero(rest));
    if (m.vars[i] == 0) continue;
    needs_entry = true;
    if (Callable(m, i, 0) && Closes(m, m.vars[i], pending & ~Bit(i))) {
      return true;
    }
  }
  return !needs_entry && Closes(m, 0, pending);
}

}  // namespace

std::optional<ConjunctiveQuery> OptimizeLiteralOrder(const ConjunctiveQuery& q,
                                                     const Catalog& catalog,
                                                     const CostModel& model) {
  const std::vector<Literal>& body = q.body();
  std::vector<bool> taken(body.size(), false);
  std::vector<Literal> ordered;
  ordered.reserve(body.size());
  BoundVariables bound;
  PlanContext context;  // running estimate of live bindings

  // The connectivity rule. `open` is the literal set of the positive
  // literals not yet scheduled; `bound_mask` mirrors `bound`. The rule
  // stays on while the body can still be finished without a Cartesian
  // product, and goes off for good at the first step where no candidate
  // keeps that possible — such a body keeps the greedy order.
  BodyMasks masks;
  BuildBodyMasks(body, catalog, &masks);
  bool connecting = masks.enabled;
  std::uint64_t open = masks.positives;
  std::uint64_t bound_mask = 0;
  const auto keeps_joins = [&](std::size_t i) {
    const std::uint64_t after =
        body[i].positive() ? bound_mask | masks.vars[i] : bound_mask;
    return JoinsWithoutCartesian(masks, after, open & ~Bit(i));
  };
  const std::size_t none = body.size();
  for (std::size_t step = 0; step < body.size(); ++step) {
    std::size_t best = none;
    LiteralScore best_score;
    for (std::size_t i = 0; i < body.size(); ++i) {
      if (taken[i]) continue;
      if (!CanExecuteNext(catalog, body[i], bound)) continue;
      const LiteralScore score =
          model.ScoreLiteral(catalog, body[i], bound, context);
      if (best == none || BetterLiteralScore(score, best_score)) {
        best = i;
        best_score = score;
      }
    }
    if (best == none) return std::nullopt;  // not orderable
    // The greedy pick stands unless it breaks the rule; then the best
    // candidate that keeps it (same score order, same tie-break) wins.
    // Only this rare fallback scores the other candidates a second time.
    if (connecting && !keeps_joins(best)) {
      std::size_t keeper = none;
      LiteralScore keeper_score;
      for (std::size_t i = 0; i < body.size(); ++i) {
        if (taken[i] || i == best) continue;
        if (!CanExecuteNext(catalog, body[i], bound)) continue;
        if (!keeps_joins(i)) continue;
        const LiteralScore score =
            model.ScoreLiteral(catalog, body[i], bound, context);
        if (keeper == none || BetterLiteralScore(score, keeper_score)) {
          keeper = i;
          keeper_score = score;
        }
      }
      if (keeper != none) {
        best = keeper;
        best_score = keeper_score;
      } else {
        connecting = false;
      }
    }
    taken[best] = true;
    const Literal& chosen = body[best];
    ordered.push_back(chosen);
    if (!best_score.filter) {
      // Expanding literals multiply the live bindings every later literal
      // is probed with; filters keep them (at most) level.
      context.live_bindings = std::max(
          1.0, context.live_bindings * model.ExpectedFanout(chosen, bound));
    }
    if (chosen.positive()) BindVariables(chosen, &bound);
    if (masks.enabled) {
      if (chosen.positive()) bound_mask |= masks.vars[best];
      open &= ~Bit(best);
    }
  }
  // Orderability also requires the head variables to be bound.
  for (const Term& v : q.AllVariables()) {
    if (bound.count(v.name()) == 0) return std::nullopt;
  }
  return q.WithBody(std::move(ordered));
}

std::optional<UnionQuery> OptimizeLiteralOrder(const UnionQuery& q,
                                               const Catalog& catalog,
                                               const CostModel& model) {
  UnionQuery out;
  for (const ConjunctiveQuery& disjunct : q.disjuncts()) {
    std::optional<ConjunctiveQuery> ordered =
        OptimizeLiteralOrder(disjunct, catalog, model);
    if (!ordered.has_value()) return std::nullopt;
    out.AddDisjunct(std::move(*ordered));
  }
  return out;
}

namespace {

StaticCostModel ModelFromOptions(const CardinalityEstimates& estimates,
                                 const PlannerOptions& options) {
  StaticCostOptions cost_options;
  cost_options.bound_arg_selectivity = options.bound_arg_selectivity;
  cost_options.fallback_cardinality = options.fallback_cardinality;
  return StaticCostModel(PatternPreference::kMostInputs, estimates,
                         cost_options);
}

}  // namespace

std::optional<ConjunctiveQuery> OptimizeLiteralOrder(
    const ConjunctiveQuery& q, const Catalog& catalog,
    const CardinalityEstimates& estimates, const PlannerOptions& options) {
  return OptimizeLiteralOrder(q, catalog, ModelFromOptions(estimates, options));
}

std::optional<UnionQuery> OptimizeLiteralOrder(
    const UnionQuery& q, const Catalog& catalog,
    const CardinalityEstimates& estimates, const PlannerOptions& options) {
  return OptimizeLiteralOrder(q, catalog, ModelFromOptions(estimates, options));
}

}  // namespace ucqn
