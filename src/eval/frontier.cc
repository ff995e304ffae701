#include "eval/frontier.h"

namespace ucqn {

std::size_t ColumnarFrontier::AddVar(const std::string& var) {
  const std::size_t index = columns_.size();
  vars_.push_back(var);
  var_index_.emplace(var, index);
  columns_.emplace_back();
  return index;
}

void ColumnarFrontier::Append(const ColumnarFrontier& rows) {
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].insert(columns_[c].end(), rows.columns_[c].begin(),
                       rows.columns_[c].end());
  }
  rows_ += rows.rows_;
}

void ColumnarFrontier::Retain(const std::vector<std::size_t>& selection) {
  for (std::vector<std::uint32_t>& column : columns_) {
    for (std::size_t i = 0; i < selection.size(); ++i) {
      column[i] = column[selection[i]];
    }
    column.resize(selection.size());
  }
  rows_ = selection.size();
}

Substitution ColumnarFrontier::DecodeRow(std::size_t row,
                                         const TermDictionary& dict) const {
  Substitution binding;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    binding.Bind(Term::Variable(vars_[c]), dict.DecodeTerm(columns_[c][row]));
  }
  return binding;
}

std::vector<Substitution> ColumnarFrontier::DecodeAll(
    const TermDictionary& dict) const {
  std::vector<Substitution> out;
  out.reserve(rows_);
  for (std::size_t row = 0; row < rows_; ++row) {
    out.push_back(DecodeRow(row, dict));
  }
  return out;
}

}  // namespace ucqn
