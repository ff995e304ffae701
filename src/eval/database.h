#ifndef UCQN_EVAL_DATABASE_H_
#define UCQN_EVAL_DATABASE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "ast/term.h"

namespace ucqn {

// A tuple of ground terms (constants, possibly null).
using Tuple = std::vector<Term>;

// Renders e.g. `(1, "Knuth", null)`.
std::string TupleToString(const Tuple& tuple);

// Renders a set of tuples, one per line, in sorted order.
std::string TupleSetToString(const std::set<Tuple>& tuples);

// An in-memory relational instance D. Relations are sets of ground tuples;
// iteration order is deterministic (lexicographic) so runs are
// reproducible.
class Database {
 public:
  Database() = default;

  // Inserts `tuple` into `relation`. CHECK-fails if the tuple contains
  // variables or if the relation was previously used with another arity.
  void Insert(const std::string& relation, Tuple tuple);

  // Removes `tuple` from `relation`; returns true when it was present.
  bool Remove(const std::string& relation, const Tuple& tuple);

  // The tuples of `relation`; nullptr if the relation has no tuples.
  const std::set<Tuple>* Find(const std::string& relation) const;

  bool Contains(const std::string& relation, const Tuple& tuple) const;

  // A stamp that changes whenever `relation` gains or loses a tuple; 0
  // for a relation never written. Stamps are unique across every
  // Database in the process and a copy keeps its original's, so equal
  // stamps mean equal contents: DatabaseSource rebuilds its id rows and
  // indexes of a relation exactly when its stamp moves.
  std::uint64_t Version(const std::string& relation) const;

  // Number of tuples in `relation` (0 if absent).
  std::size_t TupleCount(const std::string& relation) const;

  // Total number of tuples across all relations.
  std::size_t TotalTuples() const;

  // Relation names with at least one tuple, sorted.
  std::vector<std::string> RelationNames() const;

  // All constants appearing in any tuple (the active domain).
  std::set<Term> ActiveDomain() const;

  // Parses facts, one ground atom per rule-with-empty-body:
  //   B(1, "Knuth", "TAOCP").
  //   L(1).
  // Returns nullopt and sets `*error` on malformed or non-ground input.
  static std::optional<Database> ParseFacts(std::string_view text,
                                            std::string* error);

  // CHECK-failing variant for fact blocks embedded in tests and examples.
  static Database MustParseFacts(std::string_view text);

  // Renders all facts, sorted, one per line.
  std::string ToString() const;

 private:
  struct Relation {
    std::set<Tuple> tuples;
    std::uint64_t version = 0;
  };
  std::map<std::string, Relation> relations_;
};

}  // namespace ucqn

#endif  // UCQN_EVAL_DATABASE_H_
