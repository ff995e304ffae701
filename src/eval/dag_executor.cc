#include "eval/dag_executor.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>

#include "cost/cost_model.h"
#include "eval/exec_common.h"
#include "eval/frontier.h"
#include "eval/op/lowering.h"
#include "eval/op/operators.h"

namespace ucqn {

namespace {

// The rows waiting at one chain stage, first in first out. Every row at a
// stage binds the same variables, so the queue is one columnar frontier
// read from `head_`; the driver cuts morsels off its front.
class RowQueue {
 public:
  std::size_t size() const { return size_; }

  // Appends `rows` after everything already queued.
  void Push(ColumnarFrontier&& rows) {
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

  // Removes and returns the first min(cap, size()) rows, in order.
  ColumnarFrontier Take(std::size_t cap) {
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
    if (head_ > size_) Compact();
    return morsel;
  }

 private:
  // Drops the consumed prefix once it outweighs the live rows, so a
  // stage that is fed while it drains stays linear in what it holds.
  void Compact() {
    for (std::size_t c = 0; c < buffer_.width(); ++c) {
      std::vector<std::uint32_t>& column = buffer_.MutableColumn(c);
      column.erase(column.begin(), column.begin() + head_);
    }
    buffer_.SetRows(size_);
    head_ = 0;
  }

  ColumnarFrontier buffer_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

// One disjunct's compiled chain plus its execution state: a row queue in
// front of every fetch operator, and the sink. A chain is done when every
// queue has drained (all its rows either died or were materialized).
struct Chain {
  std::vector<FetchOperator> ops;
  std::vector<RowQueue> queues;
  MaterializeOp materialize;
  bool done = false;

  // Up to `depth` of the deepest stages holding rows, ascending (draining
  // deep-first bounds the rows parked mid-chain). Empty when the chain
  // has no work left.
  std::vector<std::size_t> DeepestStages(std::size_t depth) const {
    std::vector<std::size_t> stages;
    for (std::size_t i = queues.size(); i-- > 0 && stages.size() < depth;) {
      if (queues[i].size() != 0) stages.push_back(i);
    }
    std::reverse(stages.begin(), stages.end());
    return stages;
  }
};

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

UnionChainsResult ExecuteChainsDag(
    const std::vector<const ConjunctiveQuery*>& disjuncts,
    const Catalog& catalog, Source* source, const ExecutionOptions& options,
    Clock* clock, OperatorCounters* counters) {
  UnionChainsResult result;
  const CostModel& model = ResolveCostModel(options);

  std::vector<Chain> chains;
  chains.reserve(disjuncts.size());
  for (const ConjunctiveQuery* q : disjuncts) {
    Chain chain;
    const std::vector<Literal>& body = q->body();
    if (body.empty()) {
      // An empty body satisfies the one empty binding it started from.
      chain.materialize.Push(ColumnarFrontier());
      chain.done = true;
      ++counters->disjuncts_executed;
      chains.push_back(std::move(chain));
      continue;
    }
    std::vector<OperatorKind> kinds = LowerOperatorKinds(*q);
    chain.ops.reserve(body.size());
    for (std::size_t i = 0; i < body.size(); ++i) {
      chain.ops.emplace_back(kinds[i], &body[i], &catalog, &model, counters);
    }
    chain.queues.resize(body.size());
    chain.queues[0].Push(ColumnarFrontier());  // the unit frontier
    chains.push_back(std::move(chain));
  }

  const std::size_t concurrency =
      std::max<std::size_t>(options.disjunct_concurrency, 1);
  const std::size_t depth =
      std::max<std::size_t>(options.runtime.pipeline_depth, 1);
  const std::size_t cap = MorselCap(options);

  struct Lane {
    Chain* chain = nullptr;
    std::size_t stage = 0;
    PendingWave wave;
    std::vector<EncodedFetchResult> fetched;
  };

  while (true) {
    // Collect this round's lanes: the first `concurrency` chains (in
    // disjunct order) with queued rows each stage their `depth` deepest
    // non-empty stages, ascending. At concurrency 1 this drives chain 0
    // to completion before chain 1 starts a wave — the sequential union
    // order, so a shared cache observes the same call sequence.
    std::vector<Lane> lanes;
    std::size_t running = 0;
    for (Chain& chain : chains) {
      if (running == concurrency) break;
      if (chain.done) continue;
      const std::vector<std::size_t> stages = chain.DeepestStages(depth);
      if (stages.empty()) {
        chain.done = true;
        ++counters->disjuncts_executed;
        continue;
      }
      ++running;
      for (std::size_t stage : stages) {
        RowQueue& queue = chain.queues[stage];
        const std::size_t queued = queue.size();
        Lane lane;
        lane.chain = &chain;
        lane.stage = stage;
        if (!chain.ops[stage].Stage(queue.Take(cap), queued, &lane.wave)) {
          ++counters->disjuncts_executed;
          result.error = chain.ops[stage].error();
          return result;
        }
        lanes.push_back(std::move(lane));
      }
    }
    if (lanes.empty()) break;
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
      const FetchOperator& op = lane.chain->ops[lane.stage];
      if (overlap) clock->BeginLane();
      lane.fetched =
          source->FetchEncoded(op.literal().relation(), *op.pattern(),
                               lane.wave.requests, CallShape::kWave);
      if (overlap) clock->EndLane();
    }
    if (overlap) clock->EndOverlap();

    // Merge in lane order; the first failing lane aborts the whole
    // execution (no partial answers).
    for (Lane& lane : lanes) {
      Chain& chain = *lane.chain;
      FetchOperator& op = chain.ops[lane.stage];
      ColumnarFrontier out;
      if (!op.Absorb(std::move(lane.wave), std::move(lane.fetched), &out)) {
        ++counters->disjuncts_executed;
        result.error = op.error();
        return result;
      }
      if (options.max_bindings != 0 &&
          op.rows_out() > options.max_bindings) {
        ++counters->disjuncts_executed;
        result.error = "execution exceeded max_bindings (" +
                       std::to_string(options.max_bindings) +
                       ") at literal " + op.literal().ToString();
        return result;
      }
      // Dead rows are simply not pushed downstream — a stage no row
      // reaches never chooses a pattern and never errors, reproducing
      // the reference loop's break on an empty frontier.
      if (out.rows() == 0) continue;
      if (lane.stage + 1 == chain.ops.size()) {
        chain.materialize.Push(std::move(out));
      } else {
        chain.queues[lane.stage + 1].Push(std::move(out));
      }
    }
  }

  result.ok = true;
  result.witnesses.reserve(chains.size());
  for (Chain& chain : chains) {
    result.witnesses.push_back(std::move(chain.materialize.witnesses()));
  }
  return result;
}

}  // namespace ucqn
