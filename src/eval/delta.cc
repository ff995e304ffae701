#include "eval/delta.h"

#include <algorithm>
#include <utility>

#include "cost/cost_model.h"
#include "eval/exec_common.h"
#include "feasibility/plan_star.h"
#include "schema/adornment.h"

namespace ucqn {

std::vector<Tuple> AppliedDelta::ChangedTuples() const {
  std::vector<Tuple> changed;
  changed.reserve(inserted.size() + deleted.size());
  changed.insert(changed.end(), inserted.begin(), inserted.end());
  changed.insert(changed.end(), deleted.begin(), deleted.end());
  return changed;
}

std::optional<AppliedDelta> ApplyDelta(Database* db,
                                       const RelationDelta& delta,
                                       std::string* error) {
  auto fail = [&](const std::string& why) -> std::optional<AppliedDelta> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  // Validate the whole batch up front so a bad tuple cannot leave the
  // database half-updated (Database::Insert CHECK-fails where this API
  // must report).
  const std::set<Tuple>* existing = db->Find(delta.relation);
  std::optional<std::size_t> arity;
  if (existing != nullptr && !existing->empty()) {
    arity = existing->begin()->size();
  }
  for (const std::vector<Tuple>* batch : {&delta.deletes, &delta.inserts}) {
    for (const Tuple& tuple : *batch) {
      for (const Term& t : tuple) {
        if (!t.IsGround()) {
          return fail("delta tuples must be ground: " + delta.relation +
                      TupleToString(tuple));
        }
      }
      if (arity.has_value() && tuple.size() != *arity) {
        return fail("delta arity mismatch for " + delta.relation + ": got " +
                    std::to_string(tuple.size()) + ", relation has " +
                    std::to_string(*arity));
      }
      if (!arity.has_value()) arity = tuple.size();
    }
  }

  AppliedDelta applied;
  applied.relation = delta.relation;
  // Deletes first: only tuples actually present vanish, and a tuple also
  // named in `inserts` is about to come back, so it never counts as
  // effectively deleted.
  for (const Tuple& tuple : delta.deletes) {
    if (std::find(delta.inserts.begin(), delta.inserts.end(), tuple) !=
        delta.inserts.end()) {
      continue;
    }
    if (db->Remove(delta.relation, tuple)) applied.deleted.insert(tuple);
  }
  for (const Tuple& tuple : delta.inserts) {
    if (db->Contains(delta.relation, tuple)) continue;
    db->Insert(delta.relation, tuple);
    applied.inserted.insert(tuple);
  }
  return applied;
}

namespace {

// Extends one frontier row through one stage with an ordinary fetch,
// appending the surviving extensions to `out`.
bool ExtendRow(const MaintainedStage& stage, const Substitution& row,
               Source* source, std::vector<Substitution>* out,
               std::string* error) {
  FetchResult fetched =
      source->Fetch(stage.literal.relation(), stage.pattern,
                    FetchInputs(stage.literal, stage.pattern, row));
  if (!fetched.ok()) {
    *error = "source call for literal " + stage.literal.ToString() +
             " failed: " + fetched.error;
    return false;
  }
  if (stage.literal.positive()) {
    for (const Tuple& tuple : fetched.tuples) {
      std::optional<Substitution> extended =
          UnifyWithTuple(stage.literal, tuple, row);
      if (extended.has_value()) out->push_back(std::move(*extended));
    }
    return true;
  }
  // Negative literal: all variables are bound (ChoosePattern guarantees
  // it), so the instantiated atom either appears among the fetched tuples
  // (row blocked) or not (row passes unchanged).
  const Tuple instantiated = row.Apply(stage.literal.args());
  for (const Tuple& tuple : fetched.tuples) {
    if (tuple == instantiated) return true;
  }
  out->push_back(row);
  return true;
}

}  // namespace

std::optional<MaintainedChain> BuildMaintainedChain(
    const ConjunctiveQuery& plan, const Catalog& catalog, Source* source,
    std::string* error) {
  MaintainedChain chain;
  chain.plan = plan;
  chain.frontiers.emplace_back(1);  // the single empty binding
  BoundVariables bound;
  // Pattern choice never changes the answer set, only the call cost, so
  // the static model's pick is as good as any for maintenance fetches.
  const StaticCostModel model;
  std::size_t position = 0;
  for (const Literal& literal : plan.body()) {
    ++position;
    std::optional<AccessPattern> pattern =
        ChoosePattern(catalog, literal, bound, model);
    if (!pattern.has_value()) {
      *error = "literal " + literal.ToString() +
               " has no usable access pattern at its position";
      return std::nullopt;
    }
    chain.stages.push_back({literal, *pattern});
    std::vector<Substitution> next;
    for (const Substitution& row : chain.frontiers.back()) {
      if (!ExtendRow(chain.stages.back(), row, source, &next, error)) {
        return std::nullopt;
      }
    }
    // Unlike the executor, an empty frontier does not end the walk: every
    // stage keeps a (possibly empty) frontier so a later insert can revive
    // the chain from any position.
    chain.frontiers.push_back(std::move(next));
    if (literal.positive()) BindVariables(literal, &bound);
  }
  return chain;
}

DeltaApplier::DeltaApplier(const std::vector<AppliedDelta>& deltas) {
  for (const AppliedDelta& delta : deltas) {
    if (!delta.empty()) by_relation_[delta.relation] = &delta;
  }
}

bool DeltaApplier::Unaffected(const MaintainedChain& chain) const {
  for (const MaintainedStage& stage : chain.stages) {
    if (by_relation_.count(stage.literal.relation()) > 0) return false;
  }
  return true;
}

namespace {

// Appends `rows` to frontiers[from] and extends them through the remaining
// stages with ordinary fetches (the database already holds the post-update
// state), appending the survivors at every level.
bool PropagateForward(MaintainedChain* chain, std::size_t from,
                      std::vector<Substitution> rows, Source* source,
                      std::string* error) {
  for (std::size_t s = from;; ++s) {
    std::vector<Substitution>& frontier = chain->frontiers[s];
    frontier.insert(frontier.end(), rows.begin(), rows.end());
    if (rows.empty() || s == chain->stages.size()) return true;
    std::vector<Substitution> next;
    for (const Substitution& row : rows) {
      if (!ExtendRow(chain->stages[s], row, source, &next, error)) {
        return false;
      }
    }
    rows = std::move(next);
  }
}

}  // namespace

bool DeltaApplier::Maintain(MaintainedChain* chain, Source* source,
                            std::string* error) const {
  const std::size_t n = chain->stages.size();
  std::vector<const AppliedDelta*> delta_at(n, nullptr);
  bool affected = false;
  for (std::size_t k = 0; k < n; ++k) {
    auto it = by_relation_.find(chain->stages[k].literal.relation());
    if (it != by_relation_.end()) {
      delta_at[k] = it->second;
      affected = true;
    }
  }
  if (!affected) return true;

  // Delete pass: a frontier row past stage k dies when its derivation used
  // a now-deleted tuple there (positive), or its anti-join probe tuple was
  // inserted (negated — the insert flips the filter against it). The row
  // itself records the probe: Apply(args) reproduces exactly the tuple the
  // derivation consumed, so no multiplicity counting is needed.
  for (std::size_t s = 1; s <= n; ++s) {
    std::vector<Substitution>& rows = chain->frontiers[s];
    rows.erase(
        std::remove_if(
            rows.begin(), rows.end(),
            [&](const Substitution& row) {
              for (std::size_t k = 0; k < s; ++k) {
                const AppliedDelta* delta = delta_at[k];
                if (delta == nullptr) continue;
                const Tuple used = row.Apply(chain->stages[k].literal.args());
                if (chain->stages[k].literal.positive()
                        ? delta->deleted.count(used) > 0
                        : delta->inserted.count(used) > 0) {
                  return true;
                }
              }
              return false;
            }),
        rows.end());
  }

  // Rows appended below are produced against the fully-updated database,
  // so later positions' delta-joins must skip them: snapshot each
  // frontier's post-delete size as the "base" region.
  std::vector<std::size_t> base_end(n + 1);
  for (std::size_t s = 0; s <= n; ++s) base_end[s] = chain->frontiers[s].size();

  // Insert pass, affected positions in ascending order. Each position k
  // pairs surviving base rows of frontiers[k] with the change at stage k —
  // new tuples for a positive stage, removed probe targets for a negated
  // one (the delete *revives* the row) — and propagates the fresh rows
  // forward. A derivation whose first changed position is k is produced
  // here and nowhere else: earlier positions didn't make it (base rows are
  // old derivations) and later positions won't see it (base_end).
  for (std::size_t k = 0; k < n; ++k) {
    const AppliedDelta* delta = delta_at[k];
    if (delta == nullptr) continue;
    const MaintainedStage& stage = chain->stages[k];
    std::vector<Substitution> fresh;
    if (stage.literal.positive()) {
      if (delta->inserted.empty()) continue;
      for (std::size_t r = 0; r < base_end[k]; ++r) {
        const Substitution& row = chain->frontiers[k][r];
        for (const Tuple& tuple : delta->inserted) {
          std::optional<Substitution> extended =
              UnifyWithTuple(stage.literal, tuple, row);
          if (extended.has_value()) fresh.push_back(std::move(*extended));
        }
      }
    } else {
      if (delta->deleted.empty()) continue;
      for (std::size_t r = 0; r < base_end[k]; ++r) {
        const Substitution& row = chain->frontiers[k][r];
        if (delta->deleted.count(row.Apply(stage.literal.args())) > 0) {
          fresh.push_back(row);
        }
      }
    }
    if (!PropagateForward(chain, k + 1, std::move(fresh), source, error)) {
      return false;
    }
  }
  return true;
}

namespace {

// Mirrors the executor's ProjectHead/ExecuteTrueQuery handling for one
// plan: empty-body disjuncts contribute their (ground) head directly;
// chain disjuncts are compiled and materialized.
bool AddPlanDisjuncts(const UnionQuery& plan, const Catalog& catalog,
                      Source* source, std::vector<MaintainedChain>* chains,
                      std::set<Tuple>* fixed, std::string* error) {
  for (const ConjunctiveQuery& disjunct : plan.disjuncts()) {
    if (disjunct.IsTrueQuery()) {
      for (const Term& t : disjunct.head_terms()) {
        if (!t.IsGround()) {
          *error = "empty-body rule with non-ground head is not a plan";
          return false;
        }
      }
      fixed->insert(disjunct.head_terms());
      continue;
    }
    std::optional<MaintainedChain> chain =
        BuildMaintainedChain(disjunct, catalog, source, error);
    if (!chain.has_value()) return false;
    chains->push_back(std::move(*chain));
  }
  return true;
}

void ProjectChain(const MaintainedChain& chain, std::set<Tuple>* out) {
  const std::vector<Substitution>& witnesses = chain.frontiers.back();
  for (const Substitution& row : witnesses) {
    Tuple head = row.Apply(chain.plan.head_terms());
    bool ground = true;
    for (const Term& t : head) ground = ground && t.IsGround();
    // PLAN* only emits executable plans (head variables bound by the body,
    // or replaced by Δ-null in the overestimate), so this never fires for
    // chains built through Build().
    if (ground) out->insert(std::move(head));
  }
}

}  // namespace

std::unique_ptr<StandingQuery> StandingQuery::Build(const UnionQuery& q,
                                                    const Catalog& catalog,
                                                    Source* source,
                                                    std::string* error) {
  std::unique_ptr<StandingQuery> standing(new StandingQuery());
  standing->query_ = q;
  const PlanStarResult plans = PlanStar(q, catalog);
  if (!AddPlanDisjuncts(plans.under, catalog, source,
                        &standing->under_chains_, &standing->under_fixed_,
                        error) ||
      !AddPlanDisjuncts(plans.over, catalog, source, &standing->over_chains_,
                        &standing->over_fixed_, error)) {
    return nullptr;
  }
  for (const std::vector<MaintainedChain>* chains :
       {&standing->under_chains_, &standing->over_chains_}) {
    for (const MaintainedChain& chain : *chains) {
      for (const MaintainedStage& stage : chain.stages) {
        standing->relations_.insert(stage.literal.relation());
      }
    }
  }
  return standing;
}

bool StandingQuery::ApplyDeltas(const std::vector<AppliedDelta>& deltas,
                                Source* source, std::string* error) {
  const DeltaApplier applier(deltas);
  for (std::vector<MaintainedChain>* chains : {&under_chains_, &over_chains_}) {
    for (MaintainedChain& chain : *chains) {
      if (!applier.Maintain(&chain, source, error)) return false;
    }
  }
  return true;
}

StandingAnswers StandingQuery::Answers() const {
  StandingAnswers out;
  out.under = under_fixed_;
  out.over = over_fixed_;
  for (const MaintainedChain& chain : under_chains_) {
    ProjectChain(chain, &out.under);
  }
  for (const MaintainedChain& chain : over_chains_) {
    ProjectChain(chain, &out.over);
  }
  // Identical to AnswerStar's report assembly, so re-emitted standing
  // answers are byte-for-byte what a fresh run would print.
  std::set_difference(out.over.begin(), out.over.end(), out.under.begin(),
                      out.under.end(),
                      std::inserter(out.delta, out.delta.begin()));
  out.complete = out.delta.empty();
  for (const Tuple& tuple : out.delta) {
    for (const Term& t : tuple) {
      if (t.IsNull()) {
        out.delta_has_nulls = true;
        break;
      }
    }
    if (out.delta_has_nulls) break;
  }
  if (!out.complete && !out.delta_has_nulls && !out.over.empty()) {
    out.completeness_lower_bound = static_cast<double>(out.under.size()) /
                                   static_cast<double>(out.over.size());
  }
  return out;
}

}  // namespace ucqn
