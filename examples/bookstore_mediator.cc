// A small mediator session over limited sources: an infeasible query is
// answered anyway, with runtime completeness reporting (ANSWER*) and
// optional domain enumeration — the Section 4.2 workflow, including the
// foreign-key situation of Example 6 where an infeasible query still gets
// a certified-complete answer.
//
// Build & run:  ./build/examples/bookstore_mediator

#include <cstdio>

#include "ast/parser.h"
#include "eval/answer_star.h"
#include "eval/domain_enum.h"
#include "eval/explain.h"
#include "feasibility/feasible.h"

namespace {

void RunSession(const char* title, const ucqn::Catalog& catalog,
                const ucqn::UnionQuery& query, const ucqn::Database& db) {
  using namespace ucqn;
  std::printf("--- %s ---\n", title);
  FeasibleResult feasible = Feasible(query, catalog);
  std::printf("feasible: %s (%s)\n", feasible.feasible ? "yes" : "no",
              ToString(feasible.path).c_str());

  DatabaseSource source(&db, &catalog);
  AnswerStarReport report = AnswerStar(query, catalog, &source);
  std::printf("%s\n", report.Summary().c_str());

  if (!report.complete) {
    // Explain what each "maybe" tuple means (Example 7's reading).
    for (const DeltaExplanation& e :
         ExplainDelta(query, catalog, &source, report).explanations) {
      std::printf("  maybe %s\n", e.ToString().c_str());
    }
    // The user decides the possibly costly domain enumeration is worth it.
    std::printf("... engaging domain enumeration views ...\n");
    ImprovedUnderestimate improved =
        ImproveUnderestimate(query, catalog, &source);
    std::printf("improved underestimate (%zu tuples, %zu gained):\n%s\n",
                improved.tuples.size(), improved.gained.size(),
                TupleSetToString(improved.tuples).c_str());
    std::printf("domain size %zu, %llu + %llu extra source calls\n",
                improved.domain.domain.size(),
                static_cast<unsigned long long>(improved.domain.source_calls),
                static_cast<unsigned long long>(improved.evaluation_calls));
  }
  std::printf("total source calls this session: %llu\n\n",
              static_cast<unsigned long long>(source.stats().calls));
}

}  // namespace

int main() {
  using namespace ucqn;

  // The running example of Section 4: S^o, R^oo, B^ii, T^oo. Q1's B(x,y)
  // is unanswerable, so the query is infeasible.
  Catalog catalog = Catalog::MustParse(R"(
    relation S/1: o
    relation R/2: oo
    relation B/2: ii
    relation T/2: oo
  )");
  UnionQuery query = MustParseUnionQuery(R"(
    Q(x, y) :- not S(z), R(x, z), B(x, y).
    Q(x, y) :- T(x, y).
  )");
  std::printf("query:\n%s\n\n", query.ToString().c_str());

  // Session 1 (Example 5): the answerable part yields nothing, so the
  // answer is COMPLETE although the query is infeasible.
  RunSession("session 1: unanswerable part irrelevant (Example 5)", catalog,
             query, Database::MustParseFacts(R"(
               R("a", "b").
               S("b").
               T("t1", "t2").
               B("a", "y1").
             )"));

  // Session 2 (Example 6): a foreign key R.z ⊆ S.z guarantees emptiness of
  // the dangerous disjunct on every legal instance.
  RunSession("session 2: foreign key forces completeness (Example 6)",
             catalog, query, Database::MustParseFacts(R"(
               R("r1", "k1").
               R("r2", "k2").
               S("k1").
               S("k2").
               T("t1", "t2").
               B("r1", "w").
             )"));

  // Session 3 (Examples 7/8): R(a,b) with no S(b) — the overestimate shows
  // (a, null); domain enumeration then recovers the concrete answer.
  RunSession("session 3: nulls, then domain enumeration (Examples 7-8)",
             catalog, query, Database::MustParseFacts(R"(
               R("a", "b").
               T("t1", "t2").
               B("a", "t2").
             )"));
  return 0;
}
