// The ucqnd wire protocol: line-delimited JSON requests/responses — parse
// defaults and rejections, serialization round-trips, and the underlying
// JSON utility it leans on.

#include "server/protocol.h"

#include <gtest/gtest.h>

#include "util/json.h"

namespace ucqn {
namespace {

TEST(JsonTest, ParseDumpRoundTrip) {
  std::string error;
  std::optional<JsonValue> v = ParseJson(
      R"({"a": 1, "b": [true, null, "x"], "c": {"d": -2.5}, "e": ""})",
      &error);
  ASSERT_TRUE(v.has_value()) << error;
  EXPECT_EQ(v->Dump(),
            R"({"a": 1, "b": [true, null, "x"], "c": {"d": -2.5}, "e": ""})");
  EXPECT_EQ(v->GetNumber("a"), 1.0);
  const JsonValue* b = v->Find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->items().size(), 3u);
  EXPECT_TRUE(b->items()[0].AsBool());
  EXPECT_TRUE(b->items()[1].is_null());
}

TEST(JsonTest, StringEscapes) {
  std::string error;
  std::optional<JsonValue> v =
      ParseJson(R"({"s": "a\"b\\c\n\tAé"})", &error);
  ASSERT_TRUE(v.has_value()) << error;
  EXPECT_EQ(v->GetString("s"), "a\"b\\c\n\tA\xc3\xa9");
  // Dump re-escapes what must be escaped and round-trips.
  std::optional<JsonValue> again = ParseJson(v->Dump(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->GetString("s"), v->GetString("s"));
}

TEST(JsonTest, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(ParseJson("", &error).has_value());
  EXPECT_FALSE(ParseJson("{", &error).has_value());
  EXPECT_FALSE(ParseJson("{\"a\": }", &error).has_value());
  EXPECT_FALSE(ParseJson("[1, 2,]", &error).has_value());
  EXPECT_FALSE(ParseJson("{\"a\": 1} trailing", &error).has_value());
  EXPECT_FALSE(ParseJson("'single'", &error).has_value());
}

TEST(ProtocolTest, RequestDefaultsAndFields) {
  std::string error;
  std::optional<ServiceRequest> minimal =
      ParseServiceRequest(R"({"query": "Q(x) :- L(x)."})", &error);
  ASSERT_TRUE(minimal.has_value()) << error;
  EXPECT_EQ(minimal->op, ServiceRequest::Op::kQuery);
  EXPECT_EQ(minimal->tenant, "default");
  EXPECT_EQ(minimal->max_calls, 0u);
  EXPECT_TRUE(minimal->include_answers);

  std::optional<ServiceRequest> full = ParseServiceRequest(
      R"({"op": "query", "id": "q7", "tenant": "alice",)"
      R"( "query": "Q(x) :- L(x).", "max_calls": 42, "answers": false})",
      &error);
  ASSERT_TRUE(full.has_value()) << error;
  EXPECT_EQ(full->id, "q7");
  EXPECT_EQ(full->tenant, "alice");
  EXPECT_EQ(full->max_calls, 42u);
  EXPECT_FALSE(full->include_answers);
}

TEST(ProtocolTest, RequestAdminOps) {
  std::string error;
  std::optional<ServiceRequest> stats =
      ParseServiceRequest(R"({"op": "stats"})", &error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->op, ServiceRequest::Op::kStats);

  std::optional<ServiceRequest> inv =
      ParseServiceRequest(R"({"op": "invalidate", "relation": "B"})", &error);
  ASSERT_TRUE(inv.has_value()) << error;
  EXPECT_EQ(inv->op, ServiceRequest::Op::kInvalidate);
  EXPECT_EQ(inv->relation, "B");

  std::optional<ServiceRequest> snap =
      ParseServiceRequest(R"({"op": "snapshot"})", &error);
  ASSERT_TRUE(snap.has_value()) << error;
  EXPECT_EQ(snap->op, ServiceRequest::Op::kSnapshot);
}

TEST(ProtocolTest, RequestRejections) {
  std::string error;
  EXPECT_FALSE(ParseServiceRequest("not json", &error).has_value());
  EXPECT_NE(error.find("malformed"), std::string::npos);
  EXPECT_FALSE(ParseServiceRequest("[1, 2]", &error).has_value());
  EXPECT_FALSE(
      ParseServiceRequest(R"({"op": "frobnicate"})", &error).has_value());
  EXPECT_NE(error.find("unknown op"), std::string::npos);
  // A query op must carry a query.
  EXPECT_FALSE(ParseServiceRequest(R"({"op": "query"})", &error).has_value());
  EXPECT_FALSE(ParseServiceRequest(
                   R"({"query": "Q(x) :- L(x).", "max_calls": -1})", &error)
                   .has_value());
  // A call budget is a count: 1e30 does not fit a uint64, and 2.5 must
  // not truncate silently to 2.
  for (const char* max_calls : {"1e30", "2.5"}) {
    error.clear();
    EXPECT_FALSE(ParseServiceRequest(
                     std::string(R"({"query": "Q(x) :- L(x).", "max_calls": )") +
                         max_calls + "}",
                     &error)
                     .has_value())
        << max_calls;
    EXPECT_NE(error.find("max_calls"), std::string::npos) << error;
  }
  // Numbers follow the JSON grammar: no "1.2.3", "--4" or "5e".
  for (const char* number : {"1.2.3", "--4", "5e", "+1", "01"}) {
    EXPECT_FALSE(ParseJson(std::string("[") + number + "]", &error).has_value())
        << number;
  }
}

TEST(ProtocolTest, ResponseRoundTripsThroughItsJsonLine) {
  ServiceResponse response;
  response.status = ServiceResponse::Status::kOk;
  response.id = "q1";
  response.tenant = "alice";
  response.under = {{Term::Constant("a")}};
  response.over = {{Term::Constant("a")}, {Term::Constant("b"), Term::Null()}};
  response.complete = false;
  response.physical_calls = 3;
  response.cache_hits = 2;
  response.cache_misses = 1;

  const std::string line = response.ToJsonLine();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  std::string error;
  std::optional<ServiceResponse> parsed = ParseServiceResponse(line, &error);
  ASSERT_TRUE(parsed.has_value()) << error << "\nline: " << line;
  EXPECT_EQ(parsed->status, ServiceResponse::Status::kOk);
  EXPECT_EQ(parsed->id, "q1");
  EXPECT_EQ(parsed->tenant, "alice");
  EXPECT_EQ(parsed->under, response.under);
  EXPECT_EQ(parsed->over, response.over);  // incl. the null cell
  EXPECT_FALSE(parsed->complete);
  EXPECT_EQ(parsed->physical_calls, 3u);
  EXPECT_EQ(parsed->cache_hits, 2u);
  EXPECT_EQ(parsed->cache_misses, 1u);

  // The counts go through the same count reader as the request budget.
  EXPECT_FALSE(ParseServiceResponse(
                   R"({"status": "ok", "physical_calls": 1e30})", &error)
                   .has_value());
  EXPECT_NE(error.find("physical_calls"), std::string::npos) << error;
  EXPECT_FALSE(
      ParseServiceResponse(R"({"status": "ok", "cache_hits": -1})", &error)
          .has_value());
}

// ServiceRequest::ToJsonLine is ParseServiceRequest's inverse: every op,
// every non-default field, and the null cell in a delta batch survive the
// round trip (the workload replay's wire transport relies on it).
TEST(ProtocolTest, RequestRoundTripsThroughItsJsonLine) {
  auto round_trip = [](const ServiceRequest& request) {
    const std::string line = request.ToJsonLine();
    EXPECT_EQ(line.find('\n'), std::string::npos);
    std::string error;
    std::optional<ServiceRequest> parsed = ParseServiceRequest(line, &error);
    EXPECT_TRUE(parsed.has_value()) << error << "\nline: " << line;
    if (!parsed.has_value()) return;
    EXPECT_EQ(parsed->op, request.op) << line;
    EXPECT_EQ(parsed->id, request.id) << line;
    EXPECT_EQ(parsed->tenant, request.tenant) << line;
    EXPECT_EQ(parsed->query, request.query) << line;
    EXPECT_EQ(parsed->relation, request.relation) << line;
    EXPECT_EQ(parsed->max_calls, request.max_calls) << line;
    EXPECT_EQ(parsed->include_answers, request.include_answers) << line;
    EXPECT_EQ(parsed->standing, request.standing) << line;
    EXPECT_EQ(parsed->insert_tuples, request.insert_tuples) << line;
    EXPECT_EQ(parsed->delete_tuples, request.delete_tuples) << line;
  };

  ServiceRequest query;
  query.query = "Q(x) :- L(x).";
  round_trip(query);  // every optional field at its default
  query.id = "q\"1";
  query.tenant = "alice";
  query.max_calls = 100;
  query.include_answers = false;
  query.standing = true;
  round_trip(query);

  ServiceRequest delta;
  delta.op = ServiceRequest::Op::kDelta;
  delta.id = "delta@7";
  delta.relation = "B";
  delta.insert_tuples = {{Term::Constant("b"), Term::Null()},
                         {Term::Constant("a"), Term::Constant("x")}};
  delta.delete_tuples = {{Term::Constant("c"), Term::Constant("z")}};
  round_trip(delta);

  for (ServiceRequest::Op op :
       {ServiceRequest::Op::kStats, ServiceRequest::Op::kInvalidate,
        ServiceRequest::Op::kSnapshot, ServiceRequest::Op::kAnswers}) {
    ServiceRequest admin;
    admin.op = op;
    admin.id = "s1";
    round_trip(admin);
  }
}

TEST(ProtocolTest, ResponseSuppressesAnswersOnRequest) {
  ServiceResponse response;
  response.status = ServiceResponse::Status::kOk;
  response.under = {{Term::Constant("a")}};
  response.over = {{Term::Constant("a")}};
  response.include_answers = false;
  const std::string line = response.ToJsonLine();
  EXPECT_EQ(line.find("\"under\":"), std::string::npos);
  EXPECT_NE(line.find("\"under_count\": 1"), std::string::npos);
  std::string error;
  std::optional<ServiceResponse> parsed = ParseServiceResponse(line, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_FALSE(parsed->include_answers);
  EXPECT_TRUE(parsed->under.empty());
}

TEST(ProtocolTest, ErrorAndRefusalStatuses) {
  for (const auto status :
       {ServiceResponse::Status::kError, ServiceResponse::Status::kShed,
        ServiceResponse::Status::kDraining,
        ServiceResponse::Status::kQuotaRefused}) {
    ServiceResponse response;
    response.status = status;
    response.id = "r";
    response.error = "why";
    const std::string line = response.ToJsonLine();
    // Refusals carry no answer payload.
    EXPECT_EQ(line.find("under"), std::string::npos) << line;
    std::string error;
    std::optional<ServiceResponse> parsed = ParseServiceResponse(line, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->status, status);
    EXPECT_EQ(parsed->error, "why");
  }
}

TEST(ProtocolTest, AdminPayloadIsSplicedVerbatim) {
  ServiceResponse response;
  response.status = ServiceResponse::Status::kOk;
  response.id = "s1";
  response.payload_json = R"({"queries_served": 4})";
  const std::string line = response.ToJsonLine();
  EXPECT_NE(line.find("\"payload\": {\"queries_served\": 4}"),
            std::string::npos)
      << line;
  std::string error;
  std::optional<ServiceResponse> parsed = ParseServiceResponse(line, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->payload_json, R"({"queries_served": 4})");
}

TEST(ProtocolTest, RequestDeltaAndAnswersOps) {
  std::string error;
  std::optional<ServiceRequest> delta = ParseServiceRequest(
      R"({"op": "delta", "relation": "B",)"
      R"( "insert": [["a", "x"], ["b", null]], "delete": [["c", "z"]]})",
      &error);
  ASSERT_TRUE(delta.has_value()) << error;
  EXPECT_EQ(delta->op, ServiceRequest::Op::kDelta);
  EXPECT_EQ(delta->relation, "B");
  ASSERT_EQ(delta->insert_tuples.size(), 2u);
  EXPECT_EQ(delta->insert_tuples[0],
            Tuple({Term::Constant("a"), Term::Constant("x")}));
  EXPECT_EQ(delta->insert_tuples[1],
            Tuple({Term::Constant("b"), Term::Null()}));
  ASSERT_EQ(delta->delete_tuples.size(), 1u);
  EXPECT_EQ(delta->delete_tuples[0],
            Tuple({Term::Constant("c"), Term::Constant("z")}));

  // A standing registration is a query op with the flag set.
  std::optional<ServiceRequest> standing = ParseServiceRequest(
      R"({"op": "query", "id": "s1", "standing": true,)"
      R"( "query": "Q(x) :- L(x)."})",
      &error);
  ASSERT_TRUE(standing.has_value()) << error;
  EXPECT_TRUE(standing->standing);

  std::optional<ServiceRequest> answers = ParseServiceRequest(
      R"({"op": "answers", "id": "s1", "tenant": "alice"})", &error);
  ASSERT_TRUE(answers.has_value()) << error;
  EXPECT_EQ(answers->op, ServiceRequest::Op::kAnswers);
  EXPECT_EQ(answers->id, "s1");
}

TEST(ProtocolTest, RequestDeltaRejections) {
  std::string error;
  EXPECT_FALSE(
      ParseServiceRequest(R"({"op": "delta", "insert": [["a"]]})", &error)
          .has_value());
  EXPECT_NE(error.find("delta op without a \"relation\" field"),
            std::string::npos);

  EXPECT_FALSE(
      ParseServiceRequest(R"({"op": "delta", "relation": "B"})", &error)
          .has_value());
  EXPECT_NE(error.find("delta op without \"insert\" or \"delete\" tuples"),
            std::string::npos);

  // Tuples must be arrays of string/null cells.
  EXPECT_FALSE(ParseServiceRequest(
                   R"({"op": "delta", "relation": "B", "insert": [42]})",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("bad insert set: "), std::string::npos);
  EXPECT_FALSE(ParseServiceRequest(
                   R"({"op": "delta", "relation": "B", "delete": [[true]]})",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("bad delete set: "), std::string::npos);

  EXPECT_FALSE(
      ParseServiceRequest(R"({"op": "answers"})", &error).has_value());
  EXPECT_NE(error.find("answers op without an \"id\" field"),
            std::string::npos);
}

}  // namespace
}  // namespace ucqn
