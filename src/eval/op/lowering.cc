#include "eval/op/lowering.h"

#include <algorithm>
#include <cstdio>

namespace ucqn {

const char* OperatorKindName(OperatorKind kind) {
  switch (kind) {
    case OperatorKind::kAccessScan:
      return "AccessScan";
    case OperatorKind::kHashJoin:
      return "HashJoin";
    case OperatorKind::kFilter:
      return "Filter";
    case OperatorKind::kHashAntiJoin:
      return "HashAntiJoin";
    case OperatorKind::kMaterialize:
      return "Materialize";
  }
  return "?";
}

OperatorKind ClassifyLiteral(const Literal& literal,
                             const BoundVariables& bound) {
  if (literal.negative()) return OperatorKind::kHashAntiJoin;
  if (IsFilterLiteral(literal, bound)) return OperatorKind::kFilter;
  for (const Term& arg : literal.args()) {
    if (arg.IsVariable() && bound.count(arg.name()) > 0) {
      return OperatorKind::kHashJoin;
    }
  }
  return OperatorKind::kAccessScan;
}

bool IsCartesianStep(const Literal& literal, const BoundVariables& bound) {
  return !bound.empty() &&
         ClassifyLiteral(literal, bound) == OperatorKind::kAccessScan;
}

std::vector<OperatorKind> LowerOperatorKinds(const ConjunctiveQuery& q) {
  std::vector<OperatorKind> kinds;
  kinds.reserve(q.body().size());
  BoundVariables bound;
  for (const Literal& literal : q.body()) {
    kinds.push_back(ClassifyLiteral(literal, bound));
    if (literal.positive()) BindVariables(literal, &bound);
  }
  return kinds;
}

std::string LoweredChain::ToString() const {
  std::string out;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const LoweredOperator& op = ops[i];
    out += std::string(i == 0 ? "  " : "  -> ") + OperatorKindName(op.kind) +
           " " + op.literal.ToString();
    if (op.decision.chosen.has_value()) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.1f", op.estimated_cost);
      out += " via " + op.decision.chosen->word() + " est_cost=" + buf;
    } else {
      out += " (no usable pattern)";
    }
    out += "\n";
  }
  out += "  -> Materialize\n";
  return out;
}

LoweredChain LowerDisjunct(const ConjunctiveQuery& q, const Catalog& catalog,
                           const CostModel& model) {
  LoweredChain chain;
  chain.ops.reserve(q.body().size());
  BoundVariables bound;
  PlanContext context;  // same running estimate the planner keeps
  bool executable = true;
  for (const Literal& literal : q.body()) {
    LoweredOperator op;
    op.kind = ClassifyLiteral(literal, bound);
    op.literal = literal;
    ChoosePattern(catalog, literal, bound, model, context, &op.decision);
    for (const PatternCandidate& candidate : op.decision.candidates) {
      if (candidate.chosen) op.estimated_cost = candidate.cost;
    }
    executable = executable && op.decision.chosen.has_value();
    // Filters keep the live bindings (at most) level; expanding literals
    // multiply them — the same update ExplainPlan and the ordering loop
    // apply, driven by the same classification.
    if (op.kind == OperatorKind::kAccessScan ||
        op.kind == OperatorKind::kHashJoin) {
      context.live_bindings = std::max(
          1.0, context.live_bindings * model.ExpectedFanout(literal, bound));
    }
    if (literal.positive()) BindVariables(literal, &bound);
    chain.ops.push_back(std::move(op));
  }
  chain.ok = executable;
  return chain;
}

}  // namespace ucqn
