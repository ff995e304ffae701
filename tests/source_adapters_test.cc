#include "eval/source_adapters.h"

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "eval/executor.h"

namespace ucqn {
namespace {

class SourceAdaptersTest : public ::testing::Test {
 protected:
  SourceAdaptersTest() {
    catalog_ = Catalog::MustParse("R/2: oo io\nS/1: o\n");
    db_ = Database::MustParseFacts(R"(
      R("a", "b").
      R("c", "d").
      S("b").
    )");
  }

  Catalog catalog_;
  Database db_;
};

TEST_F(SourceAdaptersTest, CompositeRoutesPerRelation) {
  // R and S live at different backends.
  Database r_db = Database::MustParseFacts("R(\"a\", \"b\").\n");
  Database s_db = Database::MustParseFacts("S(\"b\").\n");
  DatabaseSource r_source(&r_db, &catalog_);
  DatabaseSource s_source(&s_db, &catalog_);
  CompositeSource mediator;
  mediator.Route("R", &r_source);
  mediator.Route("S", &s_source);
  EXPECT_TRUE(mediator.HasRoute("R"));
  EXPECT_FALSE(mediator.HasRoute("T"));

  ExecutionResult result =
      Execute(MustParseRule("Q(x) :- R(x, z), S(z)."), catalog_, &mediator);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.tuples.size(), 1u);
  EXPECT_EQ(*result.tuples.begin(), (Tuple{Term::Constant("a")}));
  EXPECT_EQ(r_source.stats().calls, 1u);
  EXPECT_EQ(s_source.stats().calls, 1u);
}

TEST_F(SourceAdaptersTest, CompositeUnroutedRelationDies) {
  CompositeSource mediator;
  EXPECT_DEATH(
      mediator.Fetch("R", AccessPattern::MustParse("oo"),
                     {std::nullopt, std::nullopt}),
      "no route");
}

}  // namespace
}  // namespace ucqn
