#include "eval/exec_common.h"

#include <utility>

namespace ucqn {

std::vector<std::optional<Term>> FetchInputs(const Literal& literal,
                                             const AccessPattern& pattern,
                                             const Substitution& binding) {
  std::vector<std::optional<Term>> inputs;
  inputs.reserve(literal.args().size());
  for (std::size_t j = 0; j < literal.args().size(); ++j) {
    Term value = binding.Apply(literal.args()[j]);
    if (pattern.IsInputSlot(j) && value.IsGround()) {
      inputs.emplace_back(std::move(value));
    } else {
      inputs.emplace_back(std::nullopt);
    }
  }
  return inputs;
}

std::optional<Substitution> UnifyWithTuple(const Literal& literal,
                                           const Tuple& tuple,
                                           const Substitution& binding) {
  Substitution extended = binding;
  const std::vector<Term>& args = literal.args();
  if (args.size() != tuple.size()) return std::nullopt;
  for (std::size_t j = 0; j < args.size(); ++j) {
    Term value = extended.Apply(args[j]);
    if (value.IsGround()) {
      if (value != tuple[j]) return std::nullopt;
    } else {
      if (!extended.Bind(value, tuple[j])) return std::nullopt;
    }
  }
  return extended;
}

const CostModel* ResolveCostModel(const ExecutionOptions& options,
                                  std::optional<StaticCostModel>* storage) {
  if (options.cost_model != nullptr) return options.cost_model;
  storage->emplace(options.pattern_preference);
  return &**storage;
}

}  // namespace ucqn
