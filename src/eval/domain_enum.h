#ifndef UCQN_EVAL_DOMAIN_ENUM_H_
#define UCQN_EVAL_DOMAIN_ENUM_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "ast/query.h"
#include "eval/source.h"
#include "feasibility/plan_star.h"
#include "schema/catalog.h"

namespace ucqn {

struct DomainEnumOptions {
  // Hard cap on source calls spent enumerating the domain; domain
  // enumeration is "possibly costly" (Section 4.2), so callers bound it.
  std::uint64_t max_calls = 100000;
};

// The dom(x) view of Example 8, computed dynamically: the set of constants
// obtainable from the sources, starting from `seeds` (e.g. constants in
// the query) and closing under source calls — any declared pattern whose
// input slots can be filled from the current domain is called and all
// returned values are harvested (Duschka–Levy recursive domain
// enumeration [DL97]).
struct DomainEnumResult {
  std::set<Term> domain;
  std::uint64_t source_calls = 0;
  // True if max_calls stopped the fixpoint early (domain may be partial —
  // still sound for underestimates).
  bool budget_exhausted = false;
  // Source calls that failed (flaky sources). Their values are simply not
  // harvested — the domain stays sound, possibly smaller.
  std::uint64_t source_errors = 0;
};

DomainEnumResult EnumerateDomain(const Catalog& catalog, Source* source,
                                 const std::vector<Term>& seeds,
                                 const DomainEnumOptions& options = {});

// The improved underestimate of Section 4.2: disjuncts that PLAN*
// dismissed (non-empty unanswerable part) are re-evaluated with dom(x)
// atoms supplying bindings for otherwise-unbindable variables, e.g.
//
//   Q₁ᵘ(x,y) :- R(x,z), not S(z), dom(y), B(x,y)
//
// Every tuple produced is a genuine answer (the witnesses were checked
// against the sources), so the result extends ANSWER*'s underestimate
// while remaining sound.
struct ImprovedUnderestimate {
  // False, with `error` set and nothing else filled, when re-executing
  // the plain underestimate failed at a source (e.g. a spent call budget).
  bool ok = false;
  std::string error;
  // The union of the plain underestimate and the domain-assisted answers.
  std::set<Tuple> tuples;
  // How many of those came only from domain enumeration.
  std::set<Tuple> gained;
  DomainEnumResult domain;
  // Source calls spent evaluating the domain-assisted disjuncts (on top of
  // domain.source_calls).
  std::uint64_t evaluation_calls = 0;
  // Evaluation calls that failed. The affected bindings are dropped —
  // conservative in both polarities, so `tuples` remains an underestimate.
  std::uint64_t evaluation_errors = 0;
};

ImprovedUnderestimate ImproveUnderestimate(const UnionQuery& q,
                                           const Catalog& catalog,
                                           Source* source,
                                           const DomainEnumOptions& options = {});

}  // namespace ucqn

#endif  // UCQN_EVAL_DOMAIN_ENUM_H_
