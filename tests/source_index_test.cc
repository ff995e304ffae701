// DatabaseSource answers from id rows and per-pattern hash indexes that
// it builds lazily and rebuilds when the database changes. These tests
// hold every declared pattern's answers equal to a scan of the relation,
// in its string order, across Insert, Remove and ApplyDelta between
// fetches, and read one source from several threads while its indexes
// are first built.
#include <thread>

#include <gtest/gtest.h>

#include "eval/delta.h"
#include "eval/source.h"

namespace ucqn {
namespace {

using Request = std::vector<std::optional<Term>>;

// What the access method must return: every tuple of `relation` that
// agrees with the request at the input slots, in the relation's order.
std::vector<Tuple> Scan(const Database& db, const std::string& relation,
                        const AccessPattern& pattern,
                        const Request& request) {
  std::vector<Tuple> matches;
  const std::set<Tuple>* tuples = db.Find(relation);
  if (tuples == nullptr) return matches;
  for (const Tuple& tuple : *tuples) {
    bool match = true;
    for (std::size_t j = 0; j < pattern.arity() && match; ++j) {
      match = !pattern.IsInputSlot(j) || tuple[j] == *request[j];
    }
    if (match) matches.push_back(tuple);
  }
  return matches;
}

// Every request a pattern admits over `values`: each input slot takes
// each value; output slots stay empty.
std::vector<Request> Requests(const AccessPattern& pattern,
                              const std::vector<Term>& values) {
  std::vector<Request> requests = {Request(pattern.arity())};
  for (std::size_t j = 0; j < pattern.arity(); ++j) {
    if (!pattern.IsInputSlot(j)) continue;
    std::vector<Request> extended;
    for (const Request& prefix : requests) {
      for (const Term& value : values) {
        Request request = prefix;
        request[j] = value;
        extended.push_back(std::move(request));
      }
    }
    requests = std::move(extended);
  }
  return requests;
}

class SourceIndexTest : public ::testing::Test {
 protected:
  SourceIndexTest() {
    catalog_ = Catalog::MustParse(
        "R/3: ooo ioo oio iio oii\nS/1: o i\nT/2: io\n");
    db_ = Database::MustParseFacts(R"(
      R("a", "x", "1").
      R("a", "y", "2").
      R("b", "x", "3").
      R("c", "z", "1").
      R("a", "x", "4").
      S("x").
      S("q").
    )");
  }

  // The values requests range over: the active domain, one constant the
  // data never holds, and null.
  std::vector<Term> Values() const {
    std::vector<Term> values;
    for (const Term& t : db_.ActiveDomain()) values.push_back(t);
    values.push_back(Term::Constant("absent"));
    values.push_back(Term::Null());
    return values;
  }

  // Every declared pattern of every relation, through the string Fetch
  // and through one FetchEncoded wave per pattern, against the scan.
  void ExpectEveryPatternMatchesAScan(DatabaseSource* source) {
    const std::vector<Term> values = Values();
    for (const RelationSchema* schema : catalog_.Relations()) {
      for (const AccessPattern& pattern : schema->patterns()) {
        SCOPED_TRACE(schema->name() + "^" + pattern.word());
        const std::vector<Request> requests = Requests(pattern, values);
        std::vector<EncodedTuple> signatures;
        for (const Request& request : requests) {
          signatures.push_back(EncodeSignature(pattern, request));
        }
        std::vector<EncodedFetchResult> wave = source->FetchEncoded(
            schema->name(), pattern, signatures, CallShape::kWave);
        ASSERT_EQ(wave.size(), requests.size());
        for (std::size_t i = 0; i < requests.size(); ++i) {
          const std::vector<Tuple> expected =
              Scan(db_, schema->name(), pattern, requests[i]);
          ASSERT_TRUE(wave[i].ok());
          EXPECT_EQ(DecodeRows(*wave[i].rows), expected) << "request " << i;
          EXPECT_EQ(source->FetchOrDie(schema->name(), pattern, requests[i]),
                    expected)
              << "request " << i;
        }
      }
    }
  }

  Catalog catalog_;
  Database db_;
};

TEST_F(SourceIndexTest, EveryPatternMatchesAScanAcrossMutations) {
  DatabaseSource source(&db_, &catalog_);
  ExpectEveryPatternMatchesAScan(&source);

  // A new tuple, with a constant the dictionary has not seen, lands in
  // the middle of R's string order.
  db_.Insert("R", {Term::Constant("a"), Term::Constant("w"),
                   Term::Constant("new")});
  ExpectEveryPatternMatchesAScan(&source);

  // Removing the only ("c", ...) tuple empties a bucket.
  ASSERT_TRUE(db_.Remove("R", {Term::Constant("c"), Term::Constant("z"),
                               Term::Constant("1")}));
  ExpectEveryPatternMatchesAScan(&source);

  // T is declared but holds nothing until a delta creates it; S loses
  // one tuple and gains another in the same batch.
  RelationDelta t_delta{"T",
                        {{Term::Constant("x"), Term::Null()},
                         {Term::Constant("x"), Term::Constant("b")}},
                        {}};
  ASSERT_TRUE(ApplyDelta(&db_, t_delta).has_value());
  RelationDelta s_delta{"S", {{Term::Constant("r")}}, {{Term::Constant("x")}}};
  ASSERT_TRUE(ApplyDelta(&db_, s_delta).has_value());
  ExpectEveryPatternMatchesAScan(&source);

  // Emptying a relation entirely.
  RelationDelta clear{"S", {}, {{Term::Constant("q")}, {Term::Constant("r")}}};
  ASSERT_TRUE(ApplyDelta(&db_, clear).has_value());
  ExpectEveryPatternMatchesAScan(&source);
}

TEST_F(SourceIndexTest, ProbesShareTheirBucketUntilTheRelationChanges) {
  DatabaseSource source(&db_, &catalog_);
  const AccessPattern by_first = AccessPattern::MustParse("ioo");
  const EncodedTuple key =
      EncodeSignature(by_first, {Term::Constant("a"), std::nullopt,
                                 std::nullopt});
  auto probe = [&] {
    return source.FetchEncoded("R", by_first, {key}, CallShape::kSingle)
        .front()
        .rows;
  };
  SharedRows first = probe();
  EXPECT_EQ(first->size(), 3u);
  EXPECT_EQ(probe(), first);

  // A write to another relation leaves R's index alone.
  db_.Insert("S", {Term::Constant("n")});
  EXPECT_EQ(probe(), first);

  // A write to R rebuilds it; the old rows stay valid for their holder.
  db_.Insert("R", {Term::Constant("a"), Term::Constant("z"),
                   Term::Constant("9")});
  SharedRows second = probe();
  EXPECT_NE(second, first);
  EXPECT_EQ(second->size(), 4u);
  EXPECT_EQ(first->size(), 3u);

  // Re-inserting a present tuple changes nothing.
  db_.Insert("R", {Term::Constant("a"), Term::Constant("z"),
                   Term::Constant("9")});
  EXPECT_EQ(probe(), second);
}

TEST_F(SourceIndexTest, ReassignedDatabaseIsReread) {
  // Version stamps are unique across databases, so replacing the whole
  // instance behind a source is seen like any other change.
  DatabaseSource source(&db_, &catalog_);
  ExpectEveryPatternMatchesAScan(&source);
  db_ = Database::MustParseFacts("R(\"d\", \"x\", \"7\").\nS(\"x\").\n");
  ExpectEveryPatternMatchesAScan(&source);
}

TEST_F(SourceIndexTest, ConcurrentReadersMatchTheScan) {
  // Four readers race on a fresh source (and, after each write, on stale
  // indexes): every wave must still see its scan answer. Run under the
  // tsan preset, this is the lazy build's race check.
  const std::vector<Term> values = Values();
  struct Case {
    std::string relation;
    AccessPattern pattern;
    std::vector<EncodedTuple> signatures;
    std::vector<std::vector<Tuple>> expected;
  };
  auto cases = [&] {
    std::vector<Case> all;
    for (const RelationSchema* schema : catalog_.Relations()) {
      for (const AccessPattern& pattern : schema->patterns()) {
        Case c{schema->name(), pattern, {}, {}};
        for (const Request& request : Requests(pattern, values)) {
          c.signatures.push_back(EncodeSignature(pattern, request));
          c.expected.push_back(Scan(db_, schema->name(), pattern, request));
        }
        all.push_back(std::move(c));
      }
    }
    return all;
  };

  DatabaseSource source(&db_, &catalog_);
  std::uint64_t expected_calls = 0;
  for (int round = 0; round < 3; ++round) {
    const std::vector<Case> all = cases();
    for (const Case& c : all) expected_calls += 4 * 20 * c.signatures.size();
    std::vector<int> mismatches(4, 0);
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
      readers.emplace_back([&, t] {
        for (int repeat = 0; repeat < 20; ++repeat) {
          // Each reader walks the patterns from a different start.
          for (std::size_t k = 0; k < all.size(); ++k) {
            const Case& c = all[(k + t) % all.size()];
            std::vector<EncodedFetchResult> wave = source.FetchEncoded(
                c.relation, c.pattern, c.signatures, CallShape::kWave);
            for (std::size_t i = 0; i < wave.size(); ++i) {
              if (!wave[i].ok() || DecodeRows(*wave[i].rows) != c.expected[i]) {
                ++mismatches[t];
              }
            }
          }
        }
      });
    }
    for (std::thread& reader : readers) reader.join();
    for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0) << "reader " << t;
    // Writes happen between rounds, with no reader in flight.
    db_.Insert("R", {Term::Constant("b"), Term::Constant("y"),
                     Term::Constant(std::to_string(round))});
    db_.Remove("S", {Term::Constant("x")});
  }
  EXPECT_EQ(source.stats().calls, expected_calls);
}

}  // namespace
}  // namespace ucqn
