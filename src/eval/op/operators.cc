#include "eval/op/operators.h"

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "util/hash.h"

namespace ucqn {

// The pattern decision and slot classification happen on first contact
// with the frontier — not at lowering time — so that (a) a literal no
// row ever reaches never errors, exactly like the reference loop's
// early-out on an empty frontier, and (b) an adaptive cost model prices
// the decision with the *actual* live-binding count (every row queued at
// the stage), not the planner's estimate. The frontier's column set is
// fixed per chain stage, so one preparation serves every later morsel.
bool FetchOperator::Prepare(const ColumnarFrontier& frontier,
                            std::size_t live_rows) {
  TermDictionary& dict = TermDictionary::Global();
  // The variables bound before this literal are exactly the frontier's
  // columns: positive literals add their new variables as columns, and
  // nothing else binds.
  BoundVariables bound(frontier.vars().begin(), frontier.vars().end());
  PlanContext context;
  context.live_bindings =
      static_cast<double>(std::max<std::size_t>(live_rows, 1));
  pattern_ = ChoosePattern(*catalog_, *literal_, bound, *model_, context);
  if (!pattern_.has_value()) {
    return Fail("literal " + literal_->ToString() +
                " has no usable access pattern at its position");
  }

  // Classify each slot once; the per-row loops below are then pure
  // integer work.
  const std::vector<Term>& args = literal_->args();
  const std::size_t arity = args.size();
  plan_.assign(arity, SlotPlan{});
  std::unordered_map<std::string, std::size_t> first_occurrence;
  for (std::size_t j = 0; j < arity; ++j) {
    if (args[j].IsGround()) {
      plan_[j].kind = Slot::kConst;
      plan_[j].id = dict.EncodeGround(args[j]);
      continue;
    }
    const std::size_t c = frontier.ColumnOf(args[j].name());
    if (c != ColumnarFrontier::kNoColumn) {
      plan_[j].kind = Slot::kColumn;
      plan_[j].column = c;
      continue;
    }
    auto [it, fresh] = first_occurrence.try_emplace(args[j].name(), j);
    if (fresh) {
      plan_[j].kind = Slot::kBindFirst;
      plan_[j].column = literal_->positive()
                            ? frontier.width() + binder_slots_.size()
                            : ColumnarFrontier::kNoColumn;
      binder_slots_.push_back(j);
      binds_new_ = true;
    } else {
      plan_[j].kind = Slot::kBindRepeat;
      plan_[j].first = it->second;
    }
  }
  for (std::size_t j = 0; j < arity; ++j) {
    if (!pattern_->IsInputSlot(j) &&
        (plan_[j].kind == Slot::kConst || plan_[j].kind == Slot::kColumn)) {
      filter_slots_.push_back(j);
    }
  }
  prepared_ = true;
  return true;
}

bool FetchOperator::Matches(const std::uint32_t* tuple,
                            const ColumnarFrontier& frontier,
                            std::size_t r) const {
  for (std::size_t j = 0; j < plan_.size(); ++j) {
    switch (plan_[j].kind) {
      case Slot::kConst:
      case Slot::kColumn:
        if (tuple[j] != Required(j, frontier, r)) return false;
        break;
      case Slot::kBindFirst:
        break;
      case Slot::kBindRepeat:
        if (tuple[j] != tuple[plan_[j].first]) return false;
        break;
    }
  }
  return true;
}

bool FetchOperator::Consumed(const ColumnarFrontier& rows, std::size_t r,
                             EncodedTuple* tuple) const {
  if (!prepared_) return false;
  tuple->resize(plan_.size());
  for (std::size_t j = 0; j < plan_.size(); ++j) {
    const SlotPlan& slot = plan_[j];
    if (slot.kind == Slot::kConst) {
      (*tuple)[j] = slot.id;
    } else if (slot.kind == Slot::kBindRepeat) {
      (*tuple)[j] = (*tuple)[slot.first];
    } else if (slot.column < rows.width()) {
      (*tuple)[j] = rows.Column(slot.column)[r];
    } else {
      return false;
    }
  }
  return true;
}

bool FetchOperator::Stage(ColumnarFrontier&& morsel, std::size_t queued_rows,
                          PendingWave* wave) {
  if (!prepared_ && !Prepare(morsel, queued_rows)) return false;
  ++counters_->morsels;
  const std::size_t arity = literal_->args().size();

  // Build the wave: one flat id signature per row (input slots whose
  // value is known before the call, kAbsentId elsewhere), deduplicated by
  // integer hashing, in first-occurrence order — the order every runtime
  // ledger is keyed on. The signatures go to the source as they are.
  std::unordered_map<EncodedTuple, std::size_t, EncodedTupleHash> index;
  wave->requests.clear();
  wave->slot_of.assign(morsel.rows(), 0);
  EncodedTuple signature(arity);
  for (std::size_t r = 0; r < morsel.rows(); ++r) {
    for (std::size_t j = 0; j < arity; ++j) {
      std::uint32_t id = TermDictionary::kAbsentId;
      if (pattern_->IsInputSlot(j)) {
        if (plan_[j].kind == Slot::kConst) {
          id = plan_[j].id;
        } else if (plan_[j].kind == Slot::kColumn) {
          id = morsel.Column(plan_[j].column)[r];
        }
      }
      signature[j] = id;
    }
    auto [it, fresh] = index.try_emplace(signature, wave->requests.size());
    if (fresh) wave->requests.push_back(signature);
    wave->slot_of[r] = it->second;
  }
  wave->morsel = std::move(morsel);
  return true;
}

bool FetchOperator::Absorb(PendingWave&& wave,
                           std::vector<EncodedFetchResult> fetched,
                           ColumnarFrontier* out) {
  const std::vector<Term>& args = literal_->args();
  const std::size_t arity = args.size();
  ColumnarFrontier& frontier = wave.morsel;
  const std::vector<std::size_t>& slot_of = wave.slot_of;

  for (const EncodedFetchResult& f : fetched) {
    if (!f.ok()) {
      return Fail("source call for literal " + literal_->ToString() +
                  " failed: " + f.error);
    }
  }

  // Each request's rows, straight from the source (for a cache hit, the
  // cache's own). Rows of another arity can never unify and count as
  // none, as the string boundary drops such tuples (EncodeRows).
  std::vector<const EncodedRows*> rows(fetched.size(), nullptr);
  for (std::size_t f = 0; f < fetched.size(); ++f) {
    if (fetched[f].rows->arity() == arity) rows[f] = fetched[f].rows.get();
  }

  if (literal_->positive()) {
    // AccessScan / HashJoin / Filter: stream rows in order through their
    // request's tuples (in fetch order), appending matches column-wise —
    // exactly the binding-order x tuple-order the paper's left-to-right
    // reading derives witnesses in. A Filter simply has no binder slots:
    // surviving rows repeat once per matching fetched tuple, preserving
    // witness multiplicity.
    //
    // A request shared by several rows and selected on output slots (a
    // scan checked against a bound column, say) is indexed once on those
    // slots; each row then visits only the tuples with its values there,
    // still in fetch order. Hash collisions only add candidates, which
    // Matches rejects.
    std::vector<std::size_t> uses(fetched.size(), 0);
    for (std::size_t r = 0; r < frontier.rows(); ++r) ++uses[slot_of[r]];
    using Buckets = std::unordered_map<std::size_t, std::vector<std::size_t>>;
    std::vector<std::optional<Buckets>> indexes(fetched.size());
    auto filter_key = [&](auto&& value_at) {
      std::size_t key = filter_slots_.size();
      for (std::size_t j : filter_slots_) HashCombine(&key, value_at(j));
      return key;
    };
    if (!filter_slots_.empty()) {
      for (std::size_t f = 0; f < fetched.size(); ++f) {
        if (rows[f] == nullptr || uses[f] < 2) continue;
        Buckets& buckets = indexes[f].emplace();
        for (std::size_t t = 0; t < rows[f]->size(); ++t) {
          const std::uint32_t* tuple = rows[f]->Row(t);
          buckets[filter_key([&](std::size_t j) { return tuple[j]; })]
              .push_back(t);
        }
      }
    }

    ColumnarFrontier next;
    for (const std::string& var : frontier.vars()) next.AddVar(var);
    for (std::size_t s : binder_slots_) next.AddVar(args[s].name());
    std::size_t matched = 0;
    const std::size_t base = frontier.width();
    auto emit = [&](std::size_t r, const std::uint32_t* tuple) {
      if (!Matches(tuple, frontier, r)) return;
      for (std::size_t c = 0; c < base; ++c) {
        next.MutableColumn(c).push_back(frontier.Column(c)[r]);
      }
      for (std::size_t v = 0; v < binder_slots_.size(); ++v) {
        next.MutableColumn(base + v).push_back(tuple[binder_slots_[v]]);
      }
      ++matched;
    };
    for (std::size_t r = 0; r < frontier.rows(); ++r) {
      const std::size_t f = slot_of[r];
      if (rows[f] == nullptr) continue;
      if (indexes[f].has_value()) {
        auto bucket = indexes[f]->find(filter_key(
            [&](std::size_t j) { return Required(j, frontier, r); }));
        if (bucket == indexes[f]->end()) continue;
        for (std::size_t t : bucket->second) emit(r, rows[f]->Row(t));
      } else {
        for (std::size_t t = 0; t < rows[f]->size(); ++t) {
          emit(r, rows[f]->Row(t));
        }
      }
    }
    next.SetRows(matched);
    *out = std::move(next);
  } else if (!binds_new_) {
    // HashAntiJoin: build an id-keyed hash set per distinct request from
    // its fetched tuples, probe each row's instantiation, and keep the
    // row iff absent (ChoosePattern guarantees all variables are bound).
    std::vector<std::unordered_set<EncodedTuple, EncodedTupleHash>> probe(
        fetched.size());
    for (std::size_t f = 0; f < fetched.size(); ++f) {
      if (rows[f] == nullptr) continue;
      for (std::size_t t = 0; t < rows[f]->size(); ++t) {
        const std::uint32_t* tuple = rows[f]->Row(t);
        probe[f].emplace(tuple, tuple + arity);
      }
      counters_->antijoin_build_tuples += probe[f].size();
    }
    std::vector<std::size_t> keep;
    keep.reserve(frontier.rows());
    EncodedTuple instantiated(arity);
    for (std::size_t r = 0; r < frontier.rows(); ++r) {
      for (std::size_t j = 0; j < arity; ++j) {
        instantiated[j] = Required(j, frontier, r);
      }
      if (probe[slot_of[r]].count(instantiated) == 0) {
        keep.push_back(r);
      }
    }
    frontier.Retain(keep);
    *out = std::move(frontier);
  } else {
    // A negated literal with an unbound variable (unreachable while
    // ChoosePattern holds its guarantee) filters nothing: a ground tuple
    // never equals a tuple containing a variable.
    *out = std::move(frontier);
  }
  rows_out_ += out->rows();
  return true;
}

}  // namespace ucqn
