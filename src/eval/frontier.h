#ifndef UCQN_EVAL_FRONTIER_H_
#define UCQN_EVAL_FRONTIER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ast/substitution.h"
#include "dict/term_dictionary.h"

namespace ucqn {

// The executor's live bindings in columnar form: one contiguous id
// column per bound variable, rows in derivation order. This is the
// id-encoded replacement for a vector<Substitution> on the hot path —
// extending the frontier through a literal's fetched tuples appends to
// flat uint32 columns instead of copying a hash map per binding, and
// filtering through a negated literal compacts the columns through a
// selection vector instead of rebuilding the vector.
//
// Row order is the paper's witness order (left-to-right derivation):
// every operation here preserves it, which is what lets the encoded
// executor decode back to exactly the Substitution sequence the
// per-binding reference loop produces.
class ColumnarFrontier {
 public:
  static constexpr std::size_t kNoColumn = static_cast<std::size_t>(-1);

  // Starts as the unit frontier: one row binding no variables (the
  // empty substitution every execution begins from).
  ColumnarFrontier() = default;

  std::size_t rows() const { return rows_; }
  std::size_t width() const { return vars_.size(); }
  const std::vector<std::string>& vars() const { return vars_; }

  // The column bound to `var`, or kNoColumn.
  std::size_t ColumnOf(const std::string& var) const {
    auto it = var_index_.find(var);
    return it == var_index_.end() ? kNoColumn : it->second;
  }

  const std::vector<std::uint32_t>& Column(std::size_t c) const {
    return columns_[c];
  }
  std::vector<std::uint32_t>& MutableColumn(std::size_t c) {
    return columns_[c];
  }

  // Appends an empty column for `var` (must be unbound) and returns its
  // index. The caller fills it to the row count it is building toward.
  std::size_t AddVar(const std::string& var);

  // Declares the row count after the caller has filled all columns to
  // exactly `rows` entries.
  void SetRows(std::size_t rows) { rows_ = rows; }

  // Appends every row of `rows`, which binds the same variables in the
  // same column order, after the rows already here.
  void Append(const ColumnarFrontier& rows);

  // Keeps exactly the rows in `selection` (ascending row indices),
  // compacting every column in place. The anti-join filter of a
  // negated literal.
  void Retain(const std::vector<std::size_t>& selection);

  // Decodes row `row` back into the Substitution the reference loop
  // would have built — the result-materialization boundary.
  Substitution DecodeRow(std::size_t row, const TermDictionary& dict) const;

  // All rows, in witness order.
  std::vector<Substitution> DecodeAll(const TermDictionary& dict) const;

 private:
  std::vector<std::string> vars_;
  std::unordered_map<std::string, std::size_t> var_index_;
  std::vector<std::vector<std::uint32_t>> columns_;
  std::size_t rows_ = 1;
};

// Rows waiting in line, first in first out — the queue in front of each
// stage of an operator-DAG chain (eval/dag_executor.h). Every queued row
// binds the same variables, so the queue is one columnar frontier read
// from `head_`; the driver cuts morsels off its front.
class RowQueue {
 public:
  std::size_t size() const { return size_; }

  // Appends `rows` after everything already queued.
  void Push(ColumnarFrontier&& rows);
  // Removes and returns the first min(cap, size()) rows, in order.
  ColumnarFrontier Take(std::size_t cap);

 private:
  ColumnarFrontier buffer_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ucqn

#endif  // UCQN_EVAL_FRONTIER_H_
