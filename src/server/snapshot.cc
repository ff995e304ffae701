#include "server/snapshot.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/json.h"

namespace ucqn {

namespace {

bool ReadFileTo(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

bool WriteFileFrom(const std::string& path, const std::string& text,
                   std::string* error) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    *error = "cannot write " + path;
    return false;
  }
  out << text << "\n";
  out.close();
  if (!out) {
    *error = "write failed for " + path;
    return false;
  }
  return true;
}

}  // namespace

std::string CacheSnapshotToJson(const SharedCacheStore& store) {
  JsonValue out = JsonValue::Object();
  JsonValue entries = JsonValue::Array();
  for (const SharedCacheStore::ExportedEntry& entry : store.ExportEntries()) {
    JsonValue e = JsonValue::Object();
    if (entry.key.empty()) {
      // Decoded call signature: the store unpacked its id key into
      // strings, so the snapshot is portable across processes whose
      // dictionaries numbered the constants differently. Input cells:
      // string = constant, JSON null = no value at that slot (output
      // slot), true = the distinguished Δ-null.
      e.Set("pattern", JsonValue::String(entry.pattern_word));
      JsonValue inputs = JsonValue::Array();
      for (const std::optional<Term>& slot : entry.inputs) {
        if (!slot.has_value()) {
          inputs.Append(JsonValue::Null());
        } else if (slot->IsNull()) {
          inputs.Append(JsonValue::Bool(true));
        } else {
          inputs.Append(JsonValue::String(slot->name()));
        }
      }
      e.Set("inputs", std::move(inputs));
    } else {
      // An opaque key (not minted by SourceCacheKeyPacker) travels
      // verbatim — it can only ever hit again in a store that looks it
      // up verbatim too.
      e.Set("key", JsonValue::String(entry.key));
    }
    e.Set("relation", JsonValue::String(entry.relation));
    e.Set("ttl_remaining_us",
          JsonValue::Number(static_cast<double>(entry.ttl_remaining_micros)));
    JsonValue tuples = JsonValue::Array();
    for (const Tuple& tuple : entry.tuples) {
      JsonValue row = JsonValue::Array();
      for (const Term& term : tuple) {
        row.Append(term.IsNull() ? JsonValue::Null()
                                 : JsonValue::String(term.name()));
      }
      tuples.Append(std::move(row));
    }
    e.Set("tuples", std::move(tuples));
    entries.Append(std::move(e));
  }
  out.Set("entries", std::move(entries));
  return out.Dump();
}

bool RestoreCacheSnapshot(const std::string& json, SharedCacheStore* store,
                          std::string* error) {
  std::string parse_error;
  std::optional<JsonValue> parsed = ParseJson(json, &parse_error);
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (!parsed) return fail("malformed cache snapshot: " + parse_error);
  if (!parsed->is_object()) return fail("cache snapshot must be an object");
  const JsonValue* entries = parsed->Find("entries");
  if (entries == nullptr || !entries->is_array()) {
    return fail("cache snapshot lacks an \"entries\" array");
  }
  // Parse and validate every entry before the store sees any of them: a
  // bad entry anywhere leaves the store as it was.
  std::vector<SharedCacheStore::ExportedEntry> parsed_entries;
  parsed_entries.reserve(entries->items().size());
  for (const JsonValue& e : entries->items()) {
    if (!e.is_object()) return fail("snapshot entry must be an object");
    SharedCacheStore::ExportedEntry entry;
    entry.key = e.GetString("key");
    entry.relation = e.GetString("relation");
    if (entry.relation.empty()) {
      return fail("snapshot entry lacks key/relation");
    }
    if (entry.key.empty()) {
      // Decoded form: pattern word plus per-slot input values. The
      // store re-encodes these against the current dictionary.
      const JsonValue* pattern = e.Find("pattern");
      const JsonValue* slots = e.Find("inputs");
      if (pattern == nullptr || !pattern->is_string() || slots == nullptr ||
          !slots->is_array()) {
        return fail("snapshot entry lacks key/relation");
      }
      entry.pattern_word = pattern->AsString();
      if (entry.pattern_word.empty()) {
        return fail("snapshot entry has an empty pattern word");
      }
      if (slots->items().size() != entry.pattern_word.size()) {
        return fail("snapshot entry's pattern \"" + entry.pattern_word +
                    "\" does not have " +
                    std::to_string(slots->items().size()) + " slots");
      }
      for (const JsonValue& cell : slots->items()) {
        if (cell.is_null()) {
          entry.inputs.emplace_back(std::nullopt);
        } else if (cell.is_bool() && cell.AsBool()) {
          entry.inputs.emplace_back(Term::Null());
        } else if (cell.is_string()) {
          entry.inputs.emplace_back(Term::Constant(cell.AsString()));
        } else {
          return fail("snapshot input cells must be strings, true, or null");
        }
      }
    }
    std::string count_error;
    if (!e.GetCount("ttl_remaining_us", &entry.ttl_remaining_micros,
                    &count_error)) {
      return fail("snapshot entry: " + count_error);
    }
    const JsonValue* tuples = e.Find("tuples");
    if (tuples == nullptr || !tuples->is_array()) {
      return fail("snapshot entry lacks a \"tuples\" array");
    }
    for (const JsonValue& row : tuples->items()) {
      if (!row.is_array()) return fail("snapshot tuple must be an array");
      Tuple tuple;
      for (const JsonValue& cell : row.items()) {
        if (cell.is_null()) {
          tuple.push_back(Term::Null());
        } else if (cell.is_string()) {
          tuple.push_back(Term::Constant(cell.AsString()));
        } else {
          return fail("snapshot tuple cells must be strings or null");
        }
      }
      // Every row of a call has the call's arity: the slot count of a
      // decoded signature, else the first row's.
      const std::size_t arity = entry.key.empty() ? entry.inputs.size()
                                : entry.tuples.empty() ? tuple.size()
                                                       : entry.tuples[0].size();
      if (tuple.size() != arity) {
        return fail("snapshot entry of " + entry.relation + " has a tuple of " +
                    std::to_string(tuple.size()) + " cells where " +
                    std::to_string(arity) + " are expected");
      }
      entry.tuples.push_back(std::move(tuple));
    }
    parsed_entries.push_back(std::move(entry));
  }
  for (const SharedCacheStore::ExportedEntry& entry : parsed_entries) {
    store->RestoreEntry(entry);
  }
  return true;
}

bool SaveSnapshotFiles(const std::string& dir, const SharedCacheStore& store,
                       const StatsCatalog& stats, std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    if (error != nullptr) *error = "cannot create " + dir + ": " + ec.message();
    return false;
  }
  std::string why;
  if (!WriteFileFrom(dir + "/cache.json", CacheSnapshotToJson(store), &why) ||
      !WriteFileFrom(dir + "/stats.json", stats.ToJson(), &why)) {
    if (error != nullptr) *error = why;
    return false;
  }
  return true;
}

bool LoadSnapshotFiles(const std::string& dir, SharedCacheStore* store,
                       StatsCatalog* stats, SnapshotLoadReport* report,
                       std::string* error) {
  SnapshotLoadReport loaded;
  std::string text;
  if (ReadFileTo(dir + "/cache.json", &text)) {
    if (!RestoreCacheSnapshot(text, store, error)) return false;
    loaded.cache_loaded = true;
    loaded.cache_entries = store->size();
  }
  if (ReadFileTo(dir + "/stats.json", &text)) {
    std::string why;
    std::optional<StatsCatalog> parsed = StatsCatalog::FromJson(text, &why);
    if (!parsed) {
      if (error != nullptr) *error = "bad stats snapshot: " + why;
      return false;
    }
    // Merge rather than assign, so a pre-seeded catalog keeps its state.
    for (const auto& [relation, split] : parsed->patterns()) {
      for (const auto& [word, entry] : split) {
        stats->Record(relation, word, entry);
      }
    }
    for (const auto& [relation, entry] : parsed->relations()) {
      // Pooled-only relations (pre-split snapshots) have no keyed rows;
      // keyed ones were already folded into the pool by Record above.
      if (parsed->patterns().count(relation) == 0) {
        stats->Record(relation, entry);
      }
    }
    loaded.stats_loaded = true;
    loaded.stats_relations = parsed->size();
  }
  if (report != nullptr) *report = loaded;
  return true;
}

}  // namespace ucqn
