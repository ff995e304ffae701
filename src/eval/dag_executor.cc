#include "eval/dag_executor.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "cost/cost_model.h"
#include "eval/exec_common.h"
#include "eval/frontier.h"
#include "eval/op/lowering.h"
#include "eval/op/operators.h"

namespace ucqn {

DagChain::DagChain(const ConjunctiveQuery& q, const Catalog& catalog,
                   const CostModel& model, OperatorCounters* counters,
                   bool keep_inputs)
    : queues_(q.body().size()),
      kept_(q.body().size() + 1),
      keep_inputs_(keep_inputs) {
  const std::vector<Literal>& body = q.body();
  std::vector<OperatorKind> kinds = LowerOperatorKinds(q);
  ops_.reserve(body.size());
  for (std::size_t i = 0; i < body.size(); ++i) {
    ops_.emplace_back(kinds[i], &body[i], &catalog, &model, counters);
  }
}

void DagChain::Push(std::size_t stage, ColumnarFrontier&& rows) {
  if (stage == stages()) {
    kept_[stage].Push(std::move(rows));
    return;
  }
  if (keep_inputs_) kept_[stage].Push(rows);
  queues_[stage].Push(std::move(rows));
}

std::vector<std::size_t> DagChain::DeepestStages(std::size_t depth) const {
  std::vector<std::size_t> stages;
  for (std::size_t i = queues_.size(); i-- > 0 && stages.size() < depth;) {
    if (queues_[i].size() != 0) stages.push_back(i);
  }
  std::reverse(stages.begin(), stages.end());
  return stages;
}

namespace {

// Rows a stage may cut per round: morsel_rows when set; otherwise, when
// pipelining, one chunk per parallel worker, so the waves of several
// stages stay small enough to overlap; otherwise the whole queue.
std::size_t MorselCap(const ExecutionOptions& options) {
  if (options.morsel_rows != 0) return options.morsel_rows;
  if (options.runtime.pipeline_depth > 1) {
    return std::max<std::size_t>(options.runtime.parallelism, 1);
  }
  return std::numeric_limits<std::size_t>::max();
}

}  // namespace

bool DriveChains(const std::vector<DagChain*>& chains, Source* source,
                 const ExecutionOptions& options, Clock* clock,
                 OperatorCounters* counters, std::string* error) {
  const std::size_t concurrency =
      std::max<std::size_t>(options.disjunct_concurrency, 1);
  const std::size_t depth =
      std::max<std::size_t>(options.runtime.pipeline_depth, 1);
  const std::size_t cap = MorselCap(options);
  auto fail = [&](std::string why) {
    ++counters->disjuncts_executed;
    *error = std::move(why);
    return false;
  };

  struct Lane {
    DagChain* chain = nullptr;
    std::size_t stage = 0;
    PendingWave wave;
    std::vector<EncodedFetchResult> fetched;
  };

  std::vector<bool> done(chains.size(), false);
  while (true) {
    // Collect this round's lanes: the first `concurrency` chains (in
    // order) with queued rows each stage their `depth` deepest non-empty
    // stages, ascending. At concurrency 1 this drives chain 0 to
    // completion before chain 1 starts a wave — the sequential union
    // order, so a shared cache observes the same call sequence.
    std::vector<Lane> lanes;
    std::size_t running = 0;
    for (std::size_t i = 0; i < chains.size() && running < concurrency;
         ++i) {
      DagChain& chain = *chains[i];
      if (done[i]) continue;
      const std::vector<std::size_t> stages = chain.DeepestStages(depth);
      if (stages.empty()) {
        done[i] = true;
        ++counters->disjuncts_executed;
        continue;
      }
      ++running;
      for (std::size_t stage : stages) {
        RowQueue& queue = chain.queues_[stage];
        const std::size_t queued = queue.size();
        Lane lane;
        lane.chain = &chain;
        lane.stage = stage;
        if (!chain.ops_[stage].Stage(queue.Take(cap), queued, &lane.wave)) {
          return fail(chain.ops_[stage].error());
        }
        lanes.push_back(std::move(lane));
      }
    }
    if (lanes.empty()) return true;
    if (depth > 1) {
      ++counters->pipeline_rounds;
      if (lanes.size() >= 2) ++counters->pipeline_overlaps;
    }

    // Issue every lane's wave in lane order. Two or more resolve inside
    // one overlap bracket, each in its own lane, so a SimulatedClock
    // charges the round max-over-lanes (runtime/clock.h).
    const bool overlap = clock != nullptr && lanes.size() >= 2;
    if (overlap) clock->BeginOverlap();
    for (Lane& lane : lanes) {
      const FetchOperator& op = lane.chain->ops_[lane.stage];
      if (overlap) clock->BeginLane();
      lane.fetched =
          source->FetchEncoded(op.literal().relation(), *op.pattern(),
                               lane.wave.requests, CallShape::kWave);
      if (overlap) clock->EndLane();
    }
    if (overlap) clock->EndOverlap();

    // Merge in lane order; the first failing lane aborts the whole drive
    // (no partial answers).
    for (Lane& lane : lanes) {
      FetchOperator& op = lane.chain->ops_[lane.stage];
      ColumnarFrontier out;
      if (!op.Absorb(std::move(lane.wave), std::move(lane.fetched), &out)) {
        return fail(op.error());
      }
      if (options.max_bindings != 0 &&
          op.rows_out() > options.max_bindings) {
        return fail("execution exceeded max_bindings (" +
                    std::to_string(options.max_bindings) + ") at literal " +
                    op.literal().ToString());
      }
      // Dead rows are simply not pushed downstream — a stage no row
      // reaches never chooses a pattern and never errors, reproducing
      // the reference loop's break on an empty frontier.
      if (out.rows() != 0) lane.chain->Push(lane.stage + 1, std::move(out));
    }
  }
}

bool ExecuteChainsDag(const std::vector<const ConjunctiveQuery*>& disjuncts,
                      const Catalog& catalog, Source* source,
                      const ExecutionOptions& options, Clock* clock,
                      OperatorCounters* counters,
                      std::vector<ColumnarFrontier>* witnesses,
                      std::string* error) {
  const CostModel& model = ResolveCostModel(options);
  std::vector<DagChain> chains;
  std::vector<DagChain*> driven;
  chains.reserve(disjuncts.size());
  for (const ConjunctiveQuery* q : disjuncts) {
    chains.emplace_back(*q, catalog, model, counters, /*keep_inputs=*/false);
    chains.back().Push(0, ColumnarFrontier());  // the unit frontier
    driven.push_back(&chains.back());
  }
  if (!DriveChains(driven, source, options, clock, counters, error)) {
    return false;
  }
  for (DagChain& chain : chains) {
    witnesses->push_back(std::move(chain.kept(chain.stages())));
  }
  return true;
}

}  // namespace ucqn
