#include "eval/frontier.h"

#include <algorithm>
#include <utility>

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

void RowQueue::Push(ColumnarFrontier&& rows) {
  if (rows.rows() == 0) return;
  if (size_ == 0) {
    buffer_ = std::move(rows);
    head_ = 0;
    size_ = buffer_.rows();
    return;
  }
  buffer_.Append(rows);
  size_ += rows.rows();
}

ColumnarFrontier RowQueue::Take(std::size_t cap) {
  const std::size_t take = std::min(cap, size_);
  if (head_ == 0 && take == buffer_.rows()) {
    size_ = 0;
    return std::move(buffer_);
  }
  ColumnarFrontier morsel;
  for (const std::string& var : buffer_.vars()) morsel.AddVar(var);
  for (std::size_t c = 0; c < buffer_.width(); ++c) {
    const std::vector<std::uint32_t>& column = buffer_.Column(c);
    morsel.MutableColumn(c).assign(column.begin() + head_,
                                   column.begin() + head_ + take);
  }
  morsel.SetRows(take);
  head_ += take;
  size_ -= take;
  // Drop the consumed prefix once it outweighs the live rows, so a stage
  // that is fed while it drains stays linear in what it holds.
  if (head_ > size_) {
    for (std::size_t c = 0; c < buffer_.width(); ++c) {
      std::vector<std::uint32_t>& column = buffer_.MutableColumn(c);
      column.erase(column.begin(), column.begin() + head_);
    }
    buffer_.SetRows(size_);
    head_ = 0;
  }
  return morsel;
}

}  // namespace ucqn
