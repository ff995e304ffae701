#include "eval/source.h"

#include <array>

#include "util/logging.h"

namespace ucqn {

EncodedTuple EncodeSignature(const AccessPattern& pattern,
                             const std::vector<std::optional<Term>>& inputs) {
  TermDictionary& dict = TermDictionary::Global();
  EncodedTuple signature(inputs.size(), TermDictionary::kAbsentId);
  for (std::size_t j = 0; j < inputs.size(); ++j) {
    if (pattern.IsInputSlot(j) && inputs[j].has_value() &&
        inputs[j]->IsGround()) {
      signature[j] = dict.EncodeGround(*inputs[j]);
    }
  }
  return signature;
}

std::vector<std::optional<Term>> DecodeSignature(
    const EncodedTuple& signature) {
  const TermDictionary& dict = TermDictionary::Global();
  std::vector<std::optional<Term>> inputs(signature.size());
  for (std::size_t j = 0; j < signature.size(); ++j) {
    if (signature[j] != TermDictionary::kAbsentId) {
      inputs[j] = dict.DecodeTerm(signature[j]);
    }
  }
  return inputs;
}

namespace {

// Empty results — every negative answer a cache holds — share one
// immutable instance per (small) arity instead of an allocation each.
SharedRows NoRows(std::size_t arity) {
  constexpr std::size_t kShared = 16;
  static const std::array<SharedRows, kShared> shared = [] {
    std::array<SharedRows, kShared> rows;
    for (std::size_t a = 0; a < kShared; ++a) {
      rows[a] = std::make_shared<EncodedRows>(a);
    }
    return rows;
  }();
  return arity < kShared ? shared[arity] : std::make_shared<EncodedRows>(arity);
}

}  // namespace

SharedRows EncodeRows(const std::vector<Tuple>& tuples, std::size_t arity) {
  if (tuples.empty()) return NoRows(arity);
  TermDictionary& dict = TermDictionary::Global();
  auto rows = std::make_shared<EncodedRows>(arity);
  EncodedTuple ids(arity);
  for (const Tuple& tuple : tuples) {
    if (tuple.size() != arity) continue;
    bool ground = true;
    for (std::size_t j = 0; j < arity && ground; ++j) {
      ground = tuple[j].IsGround();
      if (ground) ids[j] = dict.EncodeGround(tuple[j]);
    }
    if (ground) rows->Append(ids.data());
  }
  return rows;
}

std::vector<Tuple> DecodeRows(const EncodedRows& rows) {
  const TermDictionary& dict = TermDictionary::Global();
  std::vector<Tuple> tuples;
  tuples.reserve(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::uint32_t* row = rows.Row(r);
    Tuple tuple;
    tuple.reserve(rows.arity());
    for (std::size_t j = 0; j < rows.arity(); ++j) {
      tuple.push_back(dict.DecodeTerm(row[j]));
    }
    tuples.push_back(std::move(tuple));
  }
  return tuples;
}

EncodedFetchResult EncodeFetchResult(FetchResult result, std::size_t arity) {
  if (!result.ok()) {
    return EncodedFetchResult::Error(result.status, std::move(result.error));
  }
  return EncodedFetchResult::Ok(EncodeRows(result.tuples, arity));
}

FetchResult DecodeFetchResult(const EncodedFetchResult& result) {
  FetchResult decoded;
  decoded.status = result.status;
  decoded.error = result.error;
  if (result.ok()) decoded.tuples = DecodeRows(*result.rows);
  return decoded;
}

std::vector<FetchResult> Source::FetchBatch(
    const std::string& relation, const AccessPattern& pattern,
    const std::vector<std::vector<std::optional<Term>>>& inputs) {
  std::vector<FetchResult> results;
  results.reserve(inputs.size());
  for (const std::vector<std::optional<Term>>& request : inputs) {
    results.push_back(Fetch(relation, pattern, request));
  }
  return results;
}

std::vector<EncodedFetchResult> Source::FetchEncoded(
    const std::string& relation, const AccessPattern& pattern,
    const std::vector<EncodedTuple>& signatures, CallShape shape) {
  std::vector<std::vector<std::optional<Term>>> inputs;
  inputs.reserve(signatures.size());
  for (const EncodedTuple& signature : signatures) {
    inputs.push_back(DecodeSignature(signature));
  }
  std::vector<FetchResult> fetched;
  if (shape == CallShape::kSingle && inputs.size() == 1) {
    fetched.push_back(Fetch(relation, pattern, inputs.front()));
  } else {
    fetched = FetchBatch(relation, pattern, inputs);
  }
  std::vector<EncodedFetchResult> results;
  results.reserve(fetched.size());
  for (FetchResult& result : fetched) {
    results.push_back(EncodeFetchResult(std::move(result), pattern.arity()));
  }
  return results;
}

FetchResult EncodedSource::Fetch(
    const std::string& relation, const AccessPattern& pattern,
    const std::vector<std::optional<Term>>& inputs) {
  return DecodeFetchResult(
      FetchEncoded(relation, pattern, {EncodeSignature(pattern, inputs)},
                   CallShape::kSingle)
          .front());
}

std::vector<FetchResult> EncodedSource::FetchBatch(
    const std::string& relation, const AccessPattern& pattern,
    const std::vector<std::vector<std::optional<Term>>>& inputs) {
  std::vector<EncodedTuple> signatures;
  signatures.reserve(inputs.size());
  for (const std::vector<std::optional<Term>>& request : inputs) {
    signatures.push_back(EncodeSignature(pattern, request));
  }
  std::vector<FetchResult> results;
  results.reserve(inputs.size());
  for (const EncodedFetchResult& result :
       FetchEncoded(relation, pattern, signatures, CallShape::kWave)) {
    results.push_back(DecodeFetchResult(result));
  }
  return results;
}

std::vector<Tuple> Source::FetchOrDie(
    const std::string& relation, const AccessPattern& pattern,
    const std::vector<std::optional<Term>>& inputs) {
  FetchResult result = Fetch(relation, pattern, inputs);
  UCQN_CHECK_MSG(result.ok(), result.error.c_str());
  return std::move(result.tuples);
}

FetchResult DatabaseSource::Fetch(
    const std::string& relation, const AccessPattern& pattern,
    const std::vector<std::optional<Term>>& inputs) {
  const RelationSchema* schema = catalog_->Find(relation);
  UCQN_CHECK_MSG(schema != nullptr, "fetch of undeclared relation");
  UCQN_CHECK_MSG(schema->HasPattern(pattern),
                 "fetch with undeclared access pattern");
  UCQN_CHECK_MSG(pattern.arity() == schema->arity(),
                 "fetch pattern arity must match the relation's declared "
                 "arity");
  UCQN_CHECK_MSG(inputs.size() == schema->arity(),
                 "fetch inputs must have one entry per declared slot");
  for (std::size_t j = 0; j < pattern.arity(); ++j) {
    if (pattern.IsInputSlot(j)) {
      UCQN_CHECK_MSG(inputs[j].has_value() && inputs[j]->IsGround(),
                     "input slot requires a ground value");
    }
  }

  std::vector<Tuple> result;
  const std::set<Tuple>* tuples = db_->Find(relation);
  if (tuples != nullptr) {
    for (const Tuple& tuple : *tuples) {
      // A stored tuple whose arity disagrees with the declared schema is a
      // data-loading bug; indexing it by pattern position would be UB.
      UCQN_CHECK_MSG(tuple.size() == schema->arity(),
                     "stored tuple arity mismatches the relation's declared "
                     "arity");
      bool matches = true;
      for (std::size_t j = 0; j < pattern.arity(); ++j) {
        if (pattern.IsInputSlot(j) && tuple[j] != *inputs[j]) {
          matches = false;
          break;
        }
      }
      if (matches) result.push_back(tuple);
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.calls;
    stats_.tuples_returned += result.size();
    SourceStats& rel_stats = per_relation_stats_[relation];
    ++rel_stats.calls;
    rel_stats.tuples_returned += result.size();
  }
  return FetchResult::Ok(std::move(result));
}

void DatabaseSource::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.Reset();
  per_relation_stats_.clear();
}

}  // namespace ucqn
