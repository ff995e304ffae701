#include "schema/adornment.h"

#include <gtest/gtest.h>

#include <random>

#include "ast/parser.h"
#include "gen/random_query.h"

namespace ucqn {
namespace {

Catalog BookCatalog() {
  return Catalog::MustParse(R"(
    relation B/3: ioo oio
    relation C/2: oo
    relation L/1: o
  )");
}

TEST(PatternUsableTest, InputSlotsNeedBoundOrGround) {
  Literal l = MustParseRule("Q(x) :- B(i, a, t).").body()[0];
  BoundVariables bound;
  EXPECT_FALSE(PatternUsable(l, AccessPattern::MustParse("ioo"), bound));
  bound.insert("i");
  EXPECT_TRUE(PatternUsable(l, AccessPattern::MustParse("ioo"), bound));
  EXPECT_FALSE(PatternUsable(l, AccessPattern::MustParse("oio"), bound));
}

TEST(PatternUsableTest, ConstantsCountAsBound) {
  Literal l = MustParseRule("Q(a) :- B(1, a, t).").body()[0];
  BoundVariables bound;
  EXPECT_TRUE(PatternUsable(l, AccessPattern::MustParse("ioo"), bound));
}

TEST(InputVariablesTest, ExtractsInputSlotVariables) {
  Literal l = MustParseRule("Q(x) :- B(i, \"A\", t).").body()[0];
  std::vector<Term> invars =
      InputVariables(l, AccessPattern::MustParse("iio"));
  ASSERT_EQ(invars.size(), 1u);  // the constant in slot 2 is not a variable
  EXPECT_EQ(invars[0], Term::Variable("i"));
}

TEST(ChoosePatternTest, PrefersMostSelectivePattern) {
  Catalog catalog = BookCatalog();
  Literal l = MustParseRule("Q(x) :- B(i, a, t).").body()[0];
  BoundVariables bound = {"i", "a"};
  std::optional<AccessPattern> p = ChoosePattern(catalog, l, bound);
  ASSERT_TRUE(p.has_value());
  // Both ioo and oio usable; each has one input slot, so either is fine.
  EXPECT_EQ(p->InputCount(), 1u);
}

TEST(ChoosePatternTest, NegativeLiteralNeedsAllVariablesBound) {
  Catalog catalog = BookCatalog();
  Literal l = MustParseRule("Q(x) :- L(i).").body()[0].Negated();
  BoundVariables bound;
  EXPECT_FALSE(ChoosePattern(catalog, l, bound).has_value());
  bound.insert("i");
  EXPECT_TRUE(ChoosePattern(catalog, l, bound).has_value());
}

TEST(ChoosePatternTest, UndeclaredRelationFails) {
  Catalog catalog = BookCatalog();
  Literal l = MustParseRule("Q(x) :- X(x).").body()[0];
  BoundVariables bound = {"x"};
  EXPECT_FALSE(ChoosePattern(catalog, l, bound).has_value());
}

TEST(ChoosePatternTest, ArityMismatchFails) {
  Catalog catalog = BookCatalog();
  Literal l = MustParseRule("Q(x) :- L(x, y).").body()[0];
  BoundVariables bound = {"x", "y"};
  EXPECT_FALSE(ChoosePattern(catalog, l, bound).has_value());
}

TEST(IsExecutableTest, Example1OrderMatters) {
  Catalog catalog = BookCatalog();
  // As written: B first, neither ioo nor oio callable.
  EXPECT_FALSE(IsExecutable(
      MustParseRule("Q(i, a, t) :- B(i, a, t), C(i, a), not L(i)."),
      catalog));
  // Reordered: C first binds i and a.
  EXPECT_TRUE(IsExecutable(
      MustParseRule("Q(i, a, t) :- C(i, a), B(i, a, t), not L(i)."),
      catalog));
}

TEST(IsExecutableTest, NegatedLiteralCannotBind) {
  Catalog catalog = BookCatalog();
  // not L(i) first: a negated call can only filter, never bind i.
  EXPECT_FALSE(IsExecutable(
      MustParseRule("Q(i, a, t) :- not L(i), B(i, a, t), C(i, a)."),
      catalog));
}

TEST(IsExecutableTest, TrueQueryIsNotExecutable) {
  Catalog catalog = BookCatalog();
  EXPECT_FALSE(IsExecutable(MustParseRule("Q()."), catalog));
  EXPECT_FALSE(IsExecutable(MustParseRule("Q(\"a\")."), catalog));
}

TEST(IsExecutableTest, HeadVariablesMustBeBound) {
  Catalog catalog = BookCatalog();
  EXPECT_FALSE(
      IsExecutable(MustParseRule("Q(i, x) :- C(i, a)."), catalog));
}

TEST(IsExecutableTest, FalseUnionIsVacuouslyExecutable) {
  Catalog catalog = BookCatalog();
  EXPECT_TRUE(IsExecutable(UnionQuery(), catalog));
}

TEST(IsExecutableTest, UnionNeedsAllDisjunctsExecutable) {
  Catalog catalog = BookCatalog();
  UnionQuery q = MustParseUnionQuery(R"(
    Q(i, a) :- C(i, a).
    Q(i, a) :- B(i, a, t), C(i, a).
  )");
  EXPECT_FALSE(IsExecutable(q, catalog));
  UnionQuery good = MustParseUnionQuery(R"(
    Q(i, a) :- C(i, a).
    Q(i, a) :- C(i, a), B(i, a, t).
  )");
  EXPECT_TRUE(IsExecutable(good, catalog));
}

TEST(ComputeAdornmentsTest, ProducesUsablePatterns) {
  Catalog catalog = BookCatalog();
  ConjunctiveQuery q =
      MustParseRule("Q(i, a, t) :- C(i, a), B(i, a, t), not L(i).");
  std::optional<std::vector<AccessPattern>> adornments =
      ComputeAdornments(q, catalog);
  ASSERT_TRUE(adornments.has_value());
  ASSERT_EQ(adornments->size(), 3u);
  EXPECT_EQ((*adornments)[0].word(), "oo");
  // For B with i and a bound, either single-input pattern may be chosen.
  EXPECT_EQ((*adornments)[1].InputCount(), 1u);
  EXPECT_EQ((*adornments)[2].word(), "o");
}

TEST(AdornedToStringTest, RendersSuperscripts) {
  Catalog catalog = BookCatalog();
  ConjunctiveQuery q = MustParseRule("Q(i, a) :- C(i, a), not L(i).");
  std::optional<std::vector<AccessPattern>> adornments =
      ComputeAdornments(q, catalog);
  ASSERT_TRUE(adornments.has_value());
  EXPECT_EQ(AdornedToString(q, *adornments),
            "Q(i, a) :- C^oo(i, a), not L^o(i).");
}

TEST(BindVariablesTest, CollectsAllVariables) {
  BoundVariables bound;
  BindVariables(MustParseRule("Q(x) :- R(x, y, \"c\").").body()[0], &bound);
  EXPECT_EQ(bound.size(), 2u);
  EXPECT_TRUE(bound.count("x"));
  EXPECT_TRUE(bound.count("y"));
}

TEST(AllVariablesBoundTest, Basic) {
  Literal l = MustParseRule("Q(x) :- R(x, y).").body()[0];
  EXPECT_FALSE(AllVariablesBound(l, {"x"}));
  EXPECT_TRUE(AllVariablesBound(l, {"x", "y"}));
}

// CanExecuteNext is a direct check; it must answer exactly what the
// pattern choice does, for any literal and bound set — including negated
// literals, undeclared relations and arity mismatches.
TEST(CanExecuteNextTest, AgreesWithChoosePattern) {
  std::mt19937 rng(20040314);
  RandomSchemaOptions schema_options;
  schema_options.input_slot_prob = 0.5;
  RandomQueryOptions options;
  options.num_literals = 5;
  options.num_variables = 4;
  options.constant_prob = 0.15;
  int executable = 0;
  int blocked = 0;
  for (int round = 0; round < 200; ++round) {
    Catalog catalog = RandomCatalog(&rng, schema_options);
    ConjunctiveQuery q = RandomCq(&rng, catalog, options);
    std::vector<Literal> literals = q.body();
    // An undeclared relation, and a declared one at the wrong arity.
    literals.push_back(
        Literal::Positive(Atom("Undeclared", {Term::Variable("v0")})));
    literals.push_back(Literal::Positive(Atom(
        q.body()[0].relation(), {Term::Variable("v0"), Term::Variable("v1"),
                                 Term::Variable("v2"), Term::Variable("v3")})));
    for (const Literal& positive : literals) {
      for (const bool negate : {false, true}) {
        const Literal literal =
            negate ? Literal::Negative(positive.atom()) : positive;
        BoundVariables bound;
        for (int v = 0; v < options.num_variables; ++v) {
          if (std::bernoulli_distribution(0.5)(rng)) {
            bound.insert("v" + std::to_string(v));
          }
        }
        const bool expected =
            ChoosePattern(catalog, literal, bound).has_value();
        EXPECT_EQ(CanExecuteNext(catalog, literal, bound), expected)
            << literal.ToString();
        (expected ? executable : blocked) += 1;
      }
    }
  }
  EXPECT_GT(executable, 100);
  EXPECT_GT(blocked, 100);
}

}  // namespace
}  // namespace ucqn
