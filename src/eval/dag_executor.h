#ifndef UCQN_EVAL_DAG_EXECUTOR_H_
#define UCQN_EVAL_DAG_EXECUTOR_H_

#include <string>
#include <vector>

#include "ast/query.h"
#include "eval/executor.h"
#include "eval/frontier.h"
#include "eval/op/operators.h"
#include "eval/source.h"
#include "runtime/clock.h"
#include "schema/catalog.h"

namespace ucqn {

// One disjunct lowered into a chain of fetch operators over
// ColumnarFrontier morsels (eval/op/), with a FIFO row queue in front of
// every operator and a Materialize sink. A chain outlives its drives:
// rows pushed at any stage after a drive are carried on by the next one,
// through the same operators (each keeps the pattern it chose on first
// contact). With `keep_inputs`, every row ever pushed at a stage is also
// kept at that stage — the retained per-stage state a standing query
// (eval/delta.h) maintains. `q`, `catalog`, `model` and `counters` must
// outlive the chain.
class DagChain {
 public:
  DagChain(const ConjunctiveQuery& q, const Catalog& catalog,
           const CostModel& model, OperatorCounters* counters,
           bool keep_inputs);

  std::size_t stages() const { return ops_.size(); }
  FetchOperator& op(std::size_t stage) { return ops_[stage]; }

  // Queues `rows` at `stage`; stage == stages() hands them to the sink.
  void Push(std::size_t stage, ColumnarFrontier&& rows);

  // What `stage` was fed, in push order: with keep_inputs every stage in
  // [0, stages()], else only the sink's witnesses at stages().
  ColumnarFrontier& kept(std::size_t stage) {
    return kept_[stage].witnesses();
  }
  const ColumnarFrontier& kept(std::size_t stage) const {
    return kept_[stage].witnesses();
  }

 private:
  friend bool DriveChains(const std::vector<DagChain*>& chains,
                          Source* source, const ExecutionOptions& options,
                          Clock* clock, OperatorCounters* counters,
                          std::string* error);

  // Up to `depth` of the deepest stages holding rows, ascending (draining
  // deep-first bounds the rows parked mid-chain). Empty when the chain
  // has no work left.
  std::vector<std::size_t> DeepestStages(std::size_t depth) const;

  std::vector<FetchOperator> ops_;
  std::vector<RowQueue> queues_;
  std::vector<MaterializeOp> kept_;
  bool keep_inputs_;
};

// The push-based DAG driver, the one fetch loop of every batched
// execution and of standing-query maintenance: drives `chains` until
// every queue has drained, in rounds. Per round, up to
// ExecutionOptions::disjunct_concurrency chains (in the given order) with
// queued rows each stage up to RuntimeOptions::pipeline_depth of their
// deepest non-empty stages, in ascending stage order; each stage cuts up
// to `cap` rows off the front of its queue (morsel_rows when set, else
// max(1, parallelism) when pipelining, else the whole queue). A stage
// prices its access pattern once, on first contact, with every row then
// queued at it. Each lane's wave is one FetchEncoded, issued in lane
// order; a multi-lane round brackets them in one clock overlap, each in
// its own lane, so a SimulatedClock charges the round max-over-lanes.
// Lanes merge in issue order and append their rows to the next stage's
// queue, so witness order is the left-to-right derivation order at every
// setting. All staging, fetching, and merging happens on the calling
// thread — concurrency is overlap of waves in flight, not executor
// threads.
//
// False, with `*error` set, as soon as some operator fails; the chains
// are then left mid-drive. `clock` may be null (no overlap accounting).
// `source` is the effective source — any runtime stack has already been
// interposed by the caller.
bool DriveChains(const std::vector<DagChain*>& chains, Source* source,
                 const ExecutionOptions& options, Clock* clock,
                 OperatorCounters* counters, std::string* error);

// Lowers each disjunct into a DagChain, pushes the unit row at stage 0
// and drives them all. On success fills `witnesses` with one frontier per
// disjunct, in input order, each in witness order and still as id
// columns; an empty body yields its single empty binding (callers handle
// ground-head projection). On failure returns false with `*error` set and
// no partial answers, matching the reference loop's contract.
bool ExecuteChainsDag(const std::vector<const ConjunctiveQuery*>& disjuncts,
                      const Catalog& catalog, Source* source,
                      const ExecutionOptions& options, Clock* clock,
                      OperatorCounters* counters,
                      std::vector<ColumnarFrontier>* witnesses,
                      std::string* error);

}  // namespace ucqn

#endif  // UCQN_EVAL_DAG_EXECUTOR_H_
