# check_session_errors.cmake — a malformed block in a `ucqnc --queries`
# session must poison only itself: the session diagnoses it by number,
# keeps running the blocks after it, and exits nonzero at the end. A
# standing query whose maintenance and rebuild both fail must print its
# error from then on, never a bracket. A call budget that runs out after
# ANSWER* is one diagnostic line and exit 1. `--cost-model static` names
# the default: its stdout equals the flag-less run's.
#
# Run as a script:
#   cmake -DUCQNC=<path-to-ucqnc> -DWORK_DIR=<scratch dir> \
#       -P check_session_errors.cmake
#
# Wired as the `session_error_check` ctest (labels: tier1;docs).

cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED UCQNC OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
      "usage: cmake -DUCQNC=<ucqnc> -DWORK_DIR=<dir> -P check_session_errors.cmake")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
file(WRITE "${WORK_DIR}/schema.txt" "L/1: o\nB/2: io\n")
file(WRITE "${WORK_DIR}/facts.txt"
    "L(\"a\").\nL(\"b\").\nB(\"a\", \"x\").\nB(\"b\", \"y\").\n")
# Block 2 fails to parse; block 3 references a relation the schema lacks;
# blocks 1 and 4 are fine. The session must run 1 and 4 regardless.
file(WRITE "${WORK_DIR}/queries.txt"
    "Q(x) :- L(x).\n"
    "---\n"
    "Q(x) :- L(x\n"
    "---\n"
    "Q(x) :- Missing(x).\n"
    "---\n"
    "Q(x, y) :- L(x), B(x, y).\n")

execute_process(
    COMMAND "${UCQNC}"
        --schema "${WORK_DIR}/schema.txt"
        --queries "${WORK_DIR}/queries.txt"
        --facts "${WORK_DIR}/facts.txt"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)

# The session saw failures, so it must exit nonzero — but it must not die
# on block 2: the queries after the bad ones still have to run.
if(rc EQUAL 0)
  message(FATAL_ERROR "session with malformed blocks exited 0:\n${out}")
endif()

function(expect_contains haystack_name haystack needle)
  string(FIND "${haystack}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
        "${haystack_name} lacks \"${needle}\"; got:\n${haystack}")
  endif()
endfunction()

expect_contains(stderr "${err}" "query 2 error:")
expect_contains(stderr "${err}" "query 3 schema mismatch:")
expect_contains(stdout "${out}" "query 2: skipped (parse error)")
expect_contains(stdout "${out}" "query 3: skipped (schema mismatch)")
# The good blocks around the bad ones both produced answers.
expect_contains(stdout "${out}" "query 1: Q(x) :- L(x).")
expect_contains(stdout "${out}" "query 4: Q(x, y) :- L(x), B(x, y).")
string(REGEX MATCHALL "answers: [0-9]+ under" answered "${out}")
list(LENGTH answered n_answered)
if(NOT n_answered EQUAL 2)
  message(FATAL_ERROR
      "expected 2 answered queries around the malformed blocks, saw ${n_answered}:\n${out}")
endif()

# --standing under a 3-call budget: repairing the chain after the first
# !delta needs four B calls and rebuilding it more, so standing 1 parks
# and both re-emissions must print its error, never a stale bracket.
file(WRITE "${WORK_DIR}/standing_facts.txt" "L(\"a\"). L(\"b\"). "
    "B(\"a\",\"x\"). B(\"b\",\"y\"). B(\"c\",\"z1\"). "
    "B(\"d\",\"z2\"). B(\"e\",\"z3\"). B(\"f\",\"z4\").\n")
file(WRITE "${WORK_DIR}/standing_queries.txt"
    "Q(x, y) :- L(x), B(x, y).\n---\n!delta\n+L(\"c\").\n+L(\"d\").\n"
    "+L(\"e\").\n+L(\"f\").\n---\n!delta\n+B(\"a\", \"x3\").\n")
execute_process(
    COMMAND "${UCQNC}" --schema "${WORK_DIR}/schema.txt"
        --queries "${WORK_DIR}/standing_queries.txt"
        --facts "${WORK_DIR}/standing_facts.txt"
        --standing --cache --max-calls 3
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
expect_contains(stderr "${err}" "query 2 error: standing 1:")
string(REGEX MATCHALL "standing 1: failed: maintenance failed" parked "${out}")
list(LENGTH parked n_parked)
string(REGEX MATCH "standing 1: [0-9]+ under" bracket "${out}")
if(rc EQUAL 0 OR NOT n_parked EQUAL 2 OR NOT bracket STREQUAL "")
  message(FATAL_ERROR
      "a parked standing query must print its error after both deltas, "
      "never a bracket, and fail the session (exit ${rc}):\n${out}")
endif()

# A call budget ANSWER* fits in can run out when the Δ explanations
# (--max-calls 1: re-deriving the padded disjunct's witnesses) or
# --improve (--max-calls 7: re-running Qᵘ) re-execute plans on the same
# stack: one diagnostic line and exit 1, never an abort.
set(budget "${WORK_DIR}/budget")
file(WRITE "${budget}_schema.txt" "L/1: o\nC/2: io\nB/2: io\n")
file(WRITE "${budget}_facts.txt"
    "L(\"a\"). L(\"b\"). C(\"x\", \"a\"). B(\"a\", \"z\").\n")
file(WRITE "${budget}_explain.txt" "Q(x, y) :- L(x), C(y, x).\n")
file(WRITE "${budget}_improve.txt"
    "Q(x, y) :- L(x), C(y, x).\nQ(x, y) :- L(x), B(x, y).\n")
foreach(case "explain;--max-calls;1;delta explanation failed: "
             "improve;--improve;--max-calls;7;improved underestimate failed: ")
  list(POP_FRONT case name)
  list(POP_BACK case needle)
  execute_process(COMMAND "${UCQNC}" --schema "${budget}_schema.txt"
      --query "${budget}_${name}.txt" --facts "${budget}_facts.txt" ${case}
      OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  string(REGEX MATCHALL "\n" newlines "${err}")
  list(LENGTH newlines n_lines)
  string(FIND "${err}" "${needle}" at)
  if(NOT rc EQUAL 1 OR NOT n_lines EQUAL 1 OR NOT at EQUAL 0)
    message(FATAL_ERROR "${name} budget: expected exit 1 and one line "
        "starting \"${needle}\", got exit ${rc} and stderr:\n${err}")
  endif()
endforeach()

# --cost-model static is the default, as in ucqnd. Handing the static
# model to the executor would reorder the literals: 4 source calls here
# where the flag-less run makes 5.
set(rst "${WORK_DIR}/rst")
file(WRITE "${rst}_schema.txt" "R/2: oo\nS/2: io\nT/1: o\n")
file(WRITE "${rst}_facts.txt" "R(\"a\", \"b\"). R(\"c\", \"d\"). "
    "R(\"e\", \"f\").\nS(\"b\", \"x\"). S(\"d\", \"y\").\nT(\"a\"). T(\"e\").\n")
file(WRITE "${rst}_query.txt" "Q(x, z) :- R(x, y), S(y, z), T(x).\n")
foreach(model default static)
  set(model_flags "")
  if(model STREQUAL "static")
    set(model_flags --cost-model static)
  endif()
  execute_process(COMMAND "${UCQNC}" --schema "${rst}_schema.txt"
      --query "${rst}_query.txt" --facts "${rst}_facts.txt" --explain
      ${model_flags}
      OUTPUT_VARIABLE ${model}_out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ucqnc ${model_flags} on the R/S/T query exited ${rc}:\n${err}")
  endif()
endforeach()
if(NOT default_out STREQUAL static_out)
  message(FATAL_ERROR "--cost-model static changed ucqnc's stdout; default:\n"
      "${default_out}\n--cost-model static:\n${static_out}")
endif()

message(STATUS "malformed --queries blocks are diagnosed and skipped; the session continues")
