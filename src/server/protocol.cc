#include "server/protocol.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "util/json.h"

namespace ucqn {

namespace {

JsonValue TupleToJson(const Tuple& tuple) {
  JsonValue row = JsonValue::Array();
  for (const Term& term : tuple) {
    // Answers are ground: constants and the distinguished null (Ex. 7's
    // unknown values). null maps to JSON null so clients need no
    // sentinel convention.
    row.Append(term.IsNull() ? JsonValue::Null()
                             : JsonValue::String(term.name()));
  }
  return row;
}

// A std::set (answers) or std::vector (delta batches) of tuples.
template <typename Tuples>
JsonValue TuplesToJson(const Tuples& tuples) {
  JsonValue rows = JsonValue::Array();
  for (const Tuple& tuple : tuples) rows.Append(TupleToJson(tuple));
  return rows;
}

// Inverse of TuplesToJson. Order-preserving into a std::vector: delta
// batches are lists (deletes apply before inserts within a batch, and
// clients may care about a stable echo), answers are sets.
template <typename Tuples>
bool JsonToTuples(const JsonValue& rows, Tuples* out, std::string* error) {
  if (!rows.is_array()) {
    *error = "expected an array of tuples";
    return false;
  }
  for (const JsonValue& row : rows.items()) {
    if (!row.is_array()) {
      *error = "expected a tuple array";
      return false;
    }
    Tuple tuple;
    for (const JsonValue& cell : row.items()) {
      if (cell.is_null()) {
        tuple.push_back(Term::Null());
      } else if (cell.is_string()) {
        tuple.push_back(Term::Constant(cell.AsString()));
      } else {
        *error = "tuple cells must be strings or null";
        return false;
      }
    }
    out->insert(out->end(), std::move(tuple));
  }
  return true;
}

// Indexed by ServiceRequest::Op.
constexpr const char* kOpWords[] = {"query",    "stats", "invalidate",
                                    "snapshot", "delta", "answers"};

}  // namespace

std::optional<ServiceRequest> ParseServiceRequest(const std::string& line,
                                                  std::string* error) {
  std::string parse_error;
  std::optional<JsonValue> json = ParseJson(line, &parse_error);
  auto fail = [&](const std::string& why) -> std::optional<ServiceRequest> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  if (!json) return fail("malformed request: " + parse_error);
  if (!json->is_object()) return fail("request must be a JSON object");

  ServiceRequest request;
  const std::string op = json->GetString("op", "query");
  const auto op_word = std::find(std::begin(kOpWords), std::end(kOpWords), op);
  if (op_word == std::end(kOpWords)) return fail("unknown op \"" + op + "\"");
  request.op =
      static_cast<ServiceRequest::Op>(op_word - std::begin(kOpWords));
  request.id = json->GetString("id");
  request.tenant = json->GetString("tenant", "default");
  if (request.tenant.empty()) request.tenant = "default";
  request.query = json->GetString("query");
  request.relation = json->GetString("relation");
  std::string count_error;
  if (!json->GetCount("max_calls", &request.max_calls, &count_error)) {
    return fail(count_error);
  }
  request.include_answers = json->GetBool("answers", true);
  request.standing = json->GetBool("standing", false);
  if (request.op == ServiceRequest::Op::kQuery && request.query.empty()) {
    return fail("query op without a \"query\" field");
  }
  if (request.op == ServiceRequest::Op::kDelta) {
    if (request.relation.empty()) {
      return fail("delta op without a \"relation\" field");
    }
    std::string tuple_error;
    const JsonValue* inserts = json->Find("insert");
    if (inserts != nullptr &&
        !JsonToTuples(*inserts, &request.insert_tuples, &tuple_error)) {
      return fail("bad insert set: " + tuple_error);
    }
    const JsonValue* deletes = json->Find("delete");
    if (deletes != nullptr &&
        !JsonToTuples(*deletes, &request.delete_tuples, &tuple_error)) {
      return fail("bad delete set: " + tuple_error);
    }
    if (request.insert_tuples.empty() && request.delete_tuples.empty()) {
      return fail("delta op without \"insert\" or \"delete\" tuples");
    }
  }
  if (request.op == ServiceRequest::Op::kAnswers && request.id.empty()) {
    return fail("answers op without an \"id\" field");
  }
  return request;
}

std::string ServiceRequest::ToJsonLine() const {
  JsonValue out = JsonValue::Object();
  out.Set("op", JsonValue::String(kOpWords[static_cast<int>(op)]));
  if (!id.empty()) out.Set("id", JsonValue::String(id));
  if (tenant != "default") out.Set("tenant", JsonValue::String(tenant));
  if (!query.empty()) out.Set("query", JsonValue::String(query));
  if (!relation.empty()) out.Set("relation", JsonValue::String(relation));
  if (max_calls != 0) {
    out.Set("max_calls", JsonValue::Number(static_cast<double>(max_calls)));
  }
  if (!include_answers) out.Set("answers", JsonValue::Bool(false));
  if (standing) out.Set("standing", JsonValue::Bool(true));
  if (!insert_tuples.empty()) out.Set("insert", TuplesToJson(insert_tuples));
  if (!delete_tuples.empty()) out.Set("delete", TuplesToJson(delete_tuples));
  return out.Dump();
}

const char* ServiceResponse::StatusWord(Status status) {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kError: return "error";
    case Status::kShed: return "shed";
    case Status::kDraining: return "draining";
    case Status::kQuotaRefused: return "quota";
  }
  return "error";
}

std::string ServiceResponse::ToJsonLine() const {
  JsonValue out = JsonValue::Object();
  if (!id.empty()) out.Set("id", JsonValue::String(id));
  if (!tenant.empty()) out.Set("tenant", JsonValue::String(tenant));
  out.Set("status", JsonValue::String(StatusWord(status)));
  if (status != Status::kOk) {
    out.Set("error", JsonValue::String(error));
    return out.Dump();
  }
  if (!payload_json.empty()) {
    // Admin payloads (cache/stats exports) are already JSON; splice the
    // text in verbatim rather than re-modelling it.
    std::string line = out.Dump();
    line.pop_back();  // trailing '}'
    return line + ", \"payload\": " + payload_json + "}";
  }
  out.Set("under_count",
          JsonValue::Number(static_cast<double>(under.size())));
  out.Set("over_count", JsonValue::Number(static_cast<double>(over.size())));
  out.Set("complete", JsonValue::Bool(complete));
  if (include_answers) {
    out.Set("under", TuplesToJson(under));
    out.Set("over", TuplesToJson(over));
  }
  out.Set("physical_calls",
          JsonValue::Number(static_cast<double>(physical_calls)));
  out.Set("cache_hits", JsonValue::Number(static_cast<double>(cache_hits)));
  out.Set("cache_misses",
          JsonValue::Number(static_cast<double>(cache_misses)));
  return out.Dump();
}

std::optional<ServiceResponse> ParseServiceResponse(const std::string& line,
                                                    std::string* error) {
  std::string parse_error;
  std::optional<JsonValue> json = ParseJson(line, &parse_error);
  auto fail = [&](const std::string& why) -> std::optional<ServiceResponse> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  if (!json) return fail("malformed response: " + parse_error);
  if (!json->is_object()) return fail("response must be a JSON object");

  ServiceResponse response;
  response.id = json->GetString("id");
  response.tenant = json->GetString("tenant");
  const std::string status = json->GetString("status");
  if (status == "ok") {
    response.status = ServiceResponse::Status::kOk;
  } else if (status == "error") {
    response.status = ServiceResponse::Status::kError;
  } else if (status == "shed") {
    response.status = ServiceResponse::Status::kShed;
  } else if (status == "draining") {
    response.status = ServiceResponse::Status::kDraining;
  } else if (status == "quota") {
    response.status = ServiceResponse::Status::kQuotaRefused;
  } else {
    return fail("unknown status \"" + status + "\"");
  }
  response.error = json->GetString("error");
  response.complete = json->GetBool("complete");
  std::string count_error;
  if (!json->GetCount("physical_calls", &response.physical_calls,
                      &count_error) ||
      !json->GetCount("cache_hits", &response.cache_hits, &count_error) ||
      !json->GetCount("cache_misses", &response.cache_misses, &count_error)) {
    return fail(count_error);
  }
  std::string tuple_error;
  const JsonValue* under = json->Find("under");
  if (under != nullptr &&
      !JsonToTuples(*under, &response.under, &tuple_error)) {
    return fail("bad under set: " + tuple_error);
  }
  const JsonValue* over = json->Find("over");
  if (over != nullptr && !JsonToTuples(*over, &response.over, &tuple_error)) {
    return fail("bad over set: " + tuple_error);
  }
  response.include_answers = under != nullptr || over != nullptr;
  const JsonValue* payload = json->Find("payload");
  if (payload != nullptr) response.payload_json = payload->Dump();
  return response;
}

}  // namespace ucqn
