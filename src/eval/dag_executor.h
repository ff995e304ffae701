#ifndef UCQN_EVAL_DAG_EXECUTOR_H_
#define UCQN_EVAL_DAG_EXECUTOR_H_

#include <string>
#include <vector>

#include "ast/query.h"
#include "eval/executor.h"
#include "eval/frontier.h"
#include "eval/op/operator.h"
#include "eval/source.h"
#include "runtime/clock.h"
#include "schema/catalog.h"

namespace ucqn {

// Result of driving a set of disjunct chains through the operator DAG:
// either every chain ran to completion (ok, one witness frontier per
// disjunct in input order, each in witness order and still as id
// columns), or some operator failed and the whole execution aborted with
// its error — no partial answers, matching the reference loop's
// contract.
struct UnionChainsResult {
  bool ok = false;
  std::string error;
  std::vector<ColumnarFrontier> witnesses;
};

// The push-based DAG driver, which runs every batched execution: lowers
// each disjunct into a chain of fetch operators over ColumnarFrontier
// morsels (eval/op/) feeding a Materialize sink, with a FIFO row queue in
// front of every operator, then drives all chains in rounds. Per round,
// up to ExecutionOptions::disjunct_concurrency chains (ascending disjunct
// order) each stage up to RuntimeOptions::pipeline_depth of their
// deepest non-empty stages, in ascending stage order; each stage cuts up
// to `cap` rows off the front of its queue (morsel_rows when set, else
// max(1, parallelism) when pipelining, else the whole queue). A stage
// prices its access pattern once, on first contact, with every row then
// queued at it. Each lane's wave is one FetchEncoded, issued in lane
// order; a multi-lane round brackets them in one clock overlap, each in
// its own lane, so a SimulatedClock charges the round max-over-lanes.
// Lanes merge in issue order and append their rows
// to the next stage's queue, so witness order is the left-to-right
// derivation order at every setting. All staging, fetching, and merging
// happens on the calling thread — concurrency is overlap of waves in
// flight, not executor threads.
//
// `disjuncts` must be non-empty; empty-body disjuncts yield their single
// empty binding (callers handle ground-head projection). `clock` may be
// null (no overlap accounting). `source` is the effective source — any
// runtime stack has already been interposed by the caller.
UnionChainsResult ExecuteChainsDag(
    const std::vector<const ConjunctiveQuery*>& disjuncts,
    const Catalog& catalog, Source* source, const ExecutionOptions& options,
    Clock* clock, OperatorCounters* counters);

}  // namespace ucqn

#endif  // UCQN_EVAL_DAG_EXECUTOR_H_
