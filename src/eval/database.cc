#include "eval/database.h"

#include <atomic>

#include "ast/parser.h"
#include "util/logging.h"
#include "util/strings.h"

namespace ucqn {

std::string TupleToString(const Tuple& tuple) {
  std::vector<std::string> parts;
  parts.reserve(tuple.size());
  for (const Term& t : tuple) parts.push_back(t.ToString());
  return "(" + StrJoin(parts, ", ") + ")";
}

std::string TupleSetToString(const std::set<Tuple>& tuples) {
  std::vector<std::string> lines;
  lines.reserve(tuples.size());
  for (const Tuple& t : tuples) lines.push_back(TupleToString(t));
  return StrJoin(lines, "\n");
}

namespace {

std::uint64_t NextVersion() {
  static std::atomic<std::uint64_t> last{0};
  return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

void Database::Insert(const std::string& relation, Tuple tuple) {
  for (const Term& t : tuple) {
    UCQN_CHECK_MSG(t.IsGround(), "database tuples must be ground");
  }
  Relation& rel = relations_[relation];
  if (!rel.tuples.empty()) {
    UCQN_CHECK_MSG(rel.tuples.begin()->size() == tuple.size(),
                   "relation used with inconsistent arities");
  }
  if (rel.tuples.insert(std::move(tuple)).second) rel.version = NextVersion();
}

bool Database::Remove(const std::string& relation, const Tuple& tuple) {
  auto it = relations_.find(relation);
  if (it == relations_.end() || it->second.tuples.erase(tuple) == 0) {
    return false;
  }
  it->second.version = NextVersion();
  return true;
}

const std::set<Tuple>* Database::Find(const std::string& relation) const {
  auto it = relations_.find(relation);
  if (it == relations_.end()) return nullptr;
  return &it->second.tuples;
}

std::uint64_t Database::Version(const std::string& relation) const {
  auto it = relations_.find(relation);
  return it == relations_.end() ? 0 : it->second.version;
}

bool Database::Contains(const std::string& relation,
                        const Tuple& tuple) const {
  const std::set<Tuple>* rel = Find(relation);
  return rel != nullptr && rel->count(tuple) > 0;
}

std::size_t Database::TupleCount(const std::string& relation) const {
  const std::set<Tuple>* rel = Find(relation);
  return rel == nullptr ? 0 : rel->size();
}

std::size_t Database::TotalTuples() const {
  std::size_t total = 0;
  for (const auto& [name, rel] : relations_) total += rel.tuples.size();
  return total;
}

std::vector<std::string> Database::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) {
    if (!rel.tuples.empty()) names.push_back(name);
  }
  return names;
}

std::set<Term> Database::ActiveDomain() const {
  std::set<Term> domain;
  for (const auto& [name, rel] : relations_) {
    for (const Tuple& tuple : rel.tuples) {
      for (const Term& t : tuple) domain.insert(t);
    }
  }
  return domain;
}

std::optional<Database> Database::ParseFacts(std::string_view text,
                                             std::string* error) {
  std::optional<std::vector<UnionQuery>> program = ParseProgram(text, error);
  if (!program.has_value()) return std::nullopt;
  Database db;
  for (const UnionQuery& group : *program) {
    for (const ConjunctiveQuery& fact : group.disjuncts()) {
      if (!fact.body().empty()) {
        if (error != nullptr) {
          *error = "facts must have empty bodies: " + fact.ToString();
        }
        return std::nullopt;
      }
      for (const Term& t : fact.head_terms()) {
        if (!t.IsGround()) {
          if (error != nullptr) {
            *error = "facts must be ground: " + fact.ToString();
          }
          return std::nullopt;
        }
      }
      db.Insert(fact.head_name(), fact.head_terms());
    }
  }
  return db;
}

Database Database::MustParseFacts(std::string_view text) {
  std::string error;
  std::optional<Database> db = ParseFacts(text, &error);
  UCQN_CHECK_MSG(db.has_value(), error.c_str());
  return std::move(*db);
}

std::string Database::ToString() const {
  std::vector<std::string> lines;
  for (const auto& [name, rel] : relations_) {
    for (const Tuple& tuple : rel.tuples) {
      std::vector<std::string> parts;
      parts.reserve(tuple.size());
      for (const Term& t : tuple) parts.push_back(t.ToString());
      lines.push_back(name + "(" + StrJoin(parts, ", ") + ").");
    }
  }
  return StrJoin(lines, "\n");
}

}  // namespace ucqn
