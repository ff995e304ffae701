#include "eval/source.h"

#include <gtest/gtest.h>

namespace ucqn {
namespace {

class DatabaseSourceTest : public ::testing::Test {
 protected:
  DatabaseSourceTest() {
    catalog_ = Catalog::MustParse("B/3: ioo oio ooo\nL/1: o i\n");
    db_ = Database::MustParseFacts(R"(
      B(1, "Knuth", "TAOCP").
      B(2, "Date", "DBS").
      B(3, "Knuth", "CM").
      L(2).
    )");
  }

  Catalog catalog_;
  Database db_;
};

TEST_F(DatabaseSourceTest, FetchByInputSlot) {
  DatabaseSource source(&db_, &catalog_);
  // Example 2: with B^oio, an author yields the matching books.
  std::vector<Tuple> result =
      source.FetchOrDie("B", AccessPattern::MustParse("oio"),
                        {std::nullopt, Term::Constant("Knuth"), std::nullopt});
  EXPECT_EQ(result.size(), 2u);
  result = source.FetchOrDie("B", AccessPattern::MustParse("ioo"),
                             {Term::Constant("2"), std::nullopt, std::nullopt});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0][1], Term::Constant("Date"));
}

TEST_F(DatabaseSourceTest, FetchReportsOkStatus) {
  DatabaseSource source(&db_, &catalog_);
  FetchResult result =
      source.Fetch("B", AccessPattern::MustParse("ooo"),
                   {std::nullopt, std::nullopt, std::nullopt});
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.status, FetchStatus::kOk);
  EXPECT_TRUE(result.error.empty());
  EXPECT_EQ(result.tuples.size(), 3u);
}

TEST_F(DatabaseSourceTest, FullScanPattern) {
  DatabaseSource source(&db_, &catalog_);
  std::vector<Tuple> result =
      source.FetchOrDie("B", AccessPattern::MustParse("ooo"),
                        {std::nullopt, std::nullopt, std::nullopt});
  EXPECT_EQ(result.size(), 3u);
}

TEST_F(DatabaseSourceTest, OutputSlotValuesAreNotFiltered) {
  DatabaseSource source(&db_, &catalog_);
  // Supplying a value at an output slot is ignored by the source (the
  // paper's footnote 4: the caller must filter).
  std::vector<Tuple> result =
      source.FetchOrDie("B", AccessPattern::MustParse("oio"),
                        {Term::Constant("1"), Term::Constant("Knuth"),
                         std::nullopt});
  EXPECT_EQ(result.size(), 2u);  // both Knuth books, not just isbn 1
}

TEST_F(DatabaseSourceTest, MembershipProbe) {
  DatabaseSource source(&db_, &catalog_);
  EXPECT_EQ(source
                .FetchOrDie("L", AccessPattern::MustParse("i"),
                            {Term::Constant("2")})
                .size(),
            1u);
  EXPECT_TRUE(source
                  .FetchOrDie("L", AccessPattern::MustParse("i"),
                              {Term::Constant("9")})
                  .empty());
}

TEST_F(DatabaseSourceTest, EmptyRelationYieldsNothing) {
  Catalog catalog = Catalog::MustParse("X/1: o\n");
  Database empty;
  DatabaseSource source(&empty, &catalog);
  EXPECT_TRUE(
      source.FetchOrDie("X", AccessPattern::MustParse("o"), {std::nullopt})
          .empty());
  EXPECT_EQ(source.stats().calls, 1u);
  EXPECT_EQ(source.stats().tuples_returned, 0u);
}

TEST_F(DatabaseSourceTest, StatsAccumulateAndReset) {
  DatabaseSource source(&db_, &catalog_);
  source.FetchOrDie("B", AccessPattern::MustParse("ooo"),
                    {std::nullopt, std::nullopt, std::nullopt});
  source.FetchOrDie("L", AccessPattern::MustParse("o"), {std::nullopt});
  EXPECT_EQ(source.stats().calls, 2u);
  EXPECT_EQ(source.stats().tuples_returned, 4u);
  ASSERT_EQ(source.per_relation_stats().size(), 2u);
  EXPECT_EQ(source.per_relation_stats().at("B").calls, 1u);
  EXPECT_EQ(source.per_relation_stats().at("B").tuples_returned, 3u);
  source.ResetStats();
  EXPECT_EQ(source.stats().calls, 0u);
  EXPECT_TRUE(source.per_relation_stats().empty());
}

using DatabaseSourceDeathTest = DatabaseSourceTest;

TEST_F(DatabaseSourceDeathTest, EnforcesDeclaredPatterns) {
  DatabaseSource source(&db_, &catalog_);
  // B^iio is not declared.
  EXPECT_DEATH(source.Fetch("B", AccessPattern::MustParse("iio"),
                            {Term::Constant("1"), Term::Constant("Knuth"),
                             std::nullopt}),
               "undeclared access pattern");
}

TEST_F(DatabaseSourceDeathTest, EnforcesInputValues) {
  DatabaseSource source(&db_, &catalog_);
  EXPECT_DEATH(source.Fetch("B", AccessPattern::MustParse("ioo"),
                            {std::nullopt, std::nullopt, std::nullopt}),
               "input slot requires a ground value");
}

TEST_F(DatabaseSourceDeathTest, RejectsSignatureValueAtOutputSlot) {
  // A call signature carries ids at input slots only (footnote 4); the
  // string Fetch drops values at output slots before encoding, so only a
  // malformed id signature can carry one.
  DatabaseSource source(&db_, &catalog_);
  const AccessPattern oio = AccessPattern::MustParse("oio");
  EncodedTuple signature = EncodeSignature(
      oio, {std::nullopt, Term::Constant("Knuth"), std::nullopt});
  signature[0] = TermDictionary::Global().Intern("1");
  EXPECT_DEATH(source.FetchEncoded("B", oio, {signature}, CallShape::kSingle),
               "output slot of a call signature carries a value");
}

TEST_F(DatabaseSourceDeathTest, EnforcesDeclaredRelation) {
  DatabaseSource source(&db_, &catalog_);
  EXPECT_DEATH(
      source.Fetch("Nope", AccessPattern::MustParse("o"), {std::nullopt}),
      "undeclared relation");
}

TEST_F(DatabaseSourceDeathTest, RejectsInputArityMismatchingDeclaredArity) {
  // Regression: an inputs vector sized for some other relation must be
  // rejected against B's declared arity (3), not silently zipped with the
  // pattern.
  DatabaseSource source(&db_, &catalog_);
  EXPECT_DEATH(source.Fetch("B", AccessPattern::MustParse("oio"),
                            {std::nullopt, Term::Constant("Knuth")}),
               "one entry per declared slot");
  EXPECT_DEATH(source.Fetch("B", AccessPattern::MustParse("oio"),
                            {std::nullopt, Term::Constant("Knuth"),
                             std::nullopt, std::nullopt}),
               "one entry per declared slot");
}

TEST_F(DatabaseSourceDeathTest, RejectsStoredTupleArityMismatch) {
  // Regression: Database has no catalog, so a relation can be loaded with
  // an arity that disagrees with its declaration; fetching it must die
  // instead of indexing out of bounds.
  Database bad;
  bad.Insert("B", {Term::Constant("7"), Term::Constant("Short")});
  DatabaseSource source(&bad, &catalog_);
  EXPECT_DEATH(source.Fetch("B", AccessPattern::MustParse("ooo"),
                            {std::nullopt, std::nullopt, std::nullopt}),
               "stored tuple arity");
}

TEST(FetchResultTest, FactoriesSetStatusAndPayload) {
  FetchResult ok = FetchResult::Ok({{Term::Constant("a")}});
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.tuples.size(), 1u);

  FetchResult transient = FetchResult::TransientError("boom");
  EXPECT_FALSE(transient.ok());
  EXPECT_EQ(transient.status, FetchStatus::kTransientError);
  EXPECT_EQ(transient.error, "boom");

  FetchResult budget = FetchResult::BudgetExhausted("spent");
  EXPECT_FALSE(budget.ok());
  EXPECT_EQ(budget.status, FetchStatus::kBudgetExhausted);
  EXPECT_EQ(budget.error, "spent");
}

}  // namespace
}  // namespace ucqn
