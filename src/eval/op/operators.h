#ifndef UCQN_EVAL_OP_OPERATORS_H_
#define UCQN_EVAL_OP_OPERATORS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ast/query.h"
#include "ast/substitution.h"
#include "cost/cost_model.h"
#include "dict/term_dictionary.h"
#include "eval/frontier.h"
#include "eval/op/operator.h"
#include "eval/source.h"
#include "schema/catalog.h"

namespace ucqn {

// One staged (not yet fetched) wave of a fetch operator for one input
// morsel: the deduplicated call signatures (first-occurrence order — the
// order every runtime ledger is keyed on; see EncodeSignature) plus the
// row -> request mapping the merge needs back. The driver owns the transport call between Stage and
// Absorb, which is what lets several disjuncts' waves resolve inside one
// clock overlap bracket.
struct PendingWave {
  ColumnarFrontier morsel;
  std::vector<EncodedTuple> requests;
  std::vector<std::size_t> slot_of;  // row -> index into `requests`
};

// A source-literal operator of the DAG (AccessScan / HashJoin / Filter /
// HashAntiJoin — the kind is a lowering-time classification; all four
// share the fetch-and-merge core). Push-based with an explicit seam:
// Stage(morsel) chooses the access pattern on first contact and builds
// the deduplicated wave; the driver fetches; Absorb(wave, results)
// merges into the output morsel.
//
// Not thread-safe; one instance belongs to one execution's chain.
class FetchOperator {
 public:
  // None of the pointers are owned; all must outlive the operator.
  FetchOperator(OperatorKind kind, const Literal* literal,
                const Catalog* catalog, const CostModel* model,
                OperatorCounters* counters)
      : kind_(kind),
        literal_(literal),
        catalog_(catalog),
        model_(model),
        counters_(counters) {}

  OperatorKind kind() const { return kind_; }
  const Literal& literal() const { return *literal_; }
  // Set by the first successful Stage.
  const std::optional<AccessPattern>& pattern() const { return pattern_; }
  // Cumulative output rows across all absorbed morsels — the literal's
  // intermediate-result size, which max_bindings bounds.
  std::size_t rows_out() const { return rows_out_; }
  const std::string& error() const { return error_; }

  // Classifies slots and chooses the pattern on first contact, then
  // builds `morsel`'s deduplicated wave. `queued_rows` is how many rows
  // were waiting at this stage when `morsel` was cut from them; the
  // first contact prices the pattern with it (live_bindings), so how the
  // driver cuts morsels never changes which pattern runs. False on
  // failure (error()).
  bool Stage(ColumnarFrontier&& morsel, std::size_t queued_rows,
             PendingWave* wave);

  // The tuple row `r` of `rows` used here: the one a positive literal
  // joined, or the one a negated literal probed for. `rows` is this
  // stage's input or any later stage's, so it carries the columns this
  // stage reads and, past a positive stage, the ones it bound. False
  // when the stage has not run yet or `rows` lacks a column.
  bool Consumed(const ColumnarFrontier& rows, std::size_t r,
                EncodedTuple* tuple) const;

  // Merges one fetched wave into `out` (join kinds append matched rows
  // column-wise; the anti-join retains non-members), preserving row
  // order. False on failure (a failed fetch, reported in request order).
  bool Absorb(PendingWave&& wave, std::vector<EncodedFetchResult> fetched,
              ColumnarFrontier* out);

 private:
  // How each argument position of the literal maps onto the frontier.
  enum class Slot { kConst, kColumn, kBindFirst, kBindRepeat };
  struct SlotPlan {
    Slot kind = Slot::kConst;
    std::uint32_t id = 0;    // kConst: the ground value's id
    // kColumn: frontier column of the variable; kBindFirst: the column
    // a positive literal gives it downstream.
    std::size_t column = 0;
    std::size_t first = 0;   // kBindRepeat: slot of the first occurrence
  };

  bool Prepare(const ColumnarFrontier& frontier, std::size_t live_rows);
  // True when `tuple` agrees with row `r` of `frontier` at every slot.
  bool Matches(const std::uint32_t* tuple, const ColumnarFrontier& frontier,
               std::size_t r) const;
  // The value row `r` of `frontier` requires at filter slot `j`.
  std::uint32_t Required(std::size_t j, const ColumnarFrontier& frontier,
                         std::size_t r) const {
    return plan_[j].kind == Slot::kConst
               ? plan_[j].id
               : frontier.Column(plan_[j].column)[r];
  }
  bool Fail(std::string error) {
    error_ = std::move(error);
    return false;
  }

  OperatorKind kind_;
  const Literal* literal_;
  const Catalog* catalog_;
  const CostModel* model_;
  OperatorCounters* counters_;

  bool prepared_ = false;
  std::optional<AccessPattern> pattern_;
  std::vector<SlotPlan> plan_;
  std::vector<std::size_t> binder_slots_;  // slots introducing new vars
  // Output slots of the chosen pattern holding a constant or a bound
  // column: the source does not select on them (footnote 4), so Absorb
  // does, through a hash index on these slots.
  std::vector<std::size_t> filter_slots_;
  bool binds_new_ = false;
  std::size_t rows_out_ = 0;
  std::string error_;
};

// The chain sink: collects surviving morsels in push (= derivation =
// witness) order, still as id columns. Execute projects heads from them
// directly; only ExecuteForBindings decodes rows into Substitutions. A
// chain that keeps its stages' inputs (eval/dag_executor.h) records each
// stage's rows in one of these too.
class MaterializeOp {
 public:
  MaterializeOp() { witnesses_.SetRows(0); }

  // Takes an rvalue's columns when the sink is empty; copies otherwise.
  template <typename Morsel>
  void Push(Morsel&& morsel) {
    if (witnesses_.rows() == 0) {
      witnesses_ = std::forward<Morsel>(morsel);
    } else {
      witnesses_.Append(morsel);
    }
  }
  // Every pushed row; no rows (and no columns) when none arrived.
  ColumnarFrontier& witnesses() { return witnesses_; }
  const ColumnarFrontier& witnesses() const { return witnesses_; }

 private:
  ColumnarFrontier witnesses_;
};

}  // namespace ucqn

#endif  // UCQN_EVAL_OP_OPERATORS_H_
