# check_flag_errors.cmake — bad numeric flag values must be rejected with
# a one-line diagnostic naming the flag, never crash or silently misparse.
#
# Run as a script:
#   cmake -DUCQNC=<ucqnc> -DUCQND=<ucqnd> -DUCQN_WORKLOAD=<ucqn_workload>
#         -P check_flag_errors.cmake
#
# Covers the numeric flags (--parallelism, --cache-ttl-ms, --cache-budget,
# --max-calls, --pipeline-depth, ...) against garbage tokens, trailing
# junk, zero/negative values, overflow, and a missing value. All three
# tools parse counts with one helper (tools/flag_parse.h), so the flags
# they share are checked against each of them.
#
# Wired as the `flag_value_check` ctest (labels: tier1;docs).

cmake_minimum_required(VERSION 3.16)

foreach(tool UCQNC UCQND UCQN_WORKLOAD)
  if(NOT DEFINED ${tool})
    message(FATAL_ERROR "usage: cmake -DUCQNC=<ucqnc> -DUCQND=<ucqnd> "
        "-DUCQN_WORKLOAD=<ucqn_workload> -P check_flag_errors.cmake")
  endif()
endforeach()

# Runs `binary` with the trailing arguments and requires a nonzero exit
# plus the given diagnostic fragment on stderr.
function(expect_tool_rejects binary expected_fragment)
  execute_process(
      COMMAND "${binary}" ${ARGN}
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err
      RESULT_VARIABLE rc)
  if(rc EQUAL 0)
    message(FATAL_ERROR "${binary} ${ARGN} exited 0; expected a usage error")
  endif()
  string(FIND "${err}" "${expected_fragment}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
        "${binary} ${ARGN}: stderr lacks \"${expected_fragment}\"; got:\n${err}")
  endif()
endfunction()

function(expect_rejects expected_fragment)
  expect_tool_rejects("${UCQNC}" "${expected_fragment}" ${ARGN})
endfunction()

# The same reject against ucqnc and ucqnd (flags ucqn_workload lacks or
# parses with a different range).
function(expect_rejects_cli_and_daemon expected_fragment)
  foreach(binary "${UCQNC}" "${UCQND}")
    expect_tool_rejects("${binary}" "${expected_fragment}" ${ARGN})
  endforeach()
endfunction()

# The same reject against all three tools.
function(expect_all_reject expected_fragment)
  foreach(binary "${UCQNC}" "${UCQND}" "${UCQN_WORKLOAD}")
    expect_tool_rejects("${binary}" "${expected_fragment}" ${ARGN})
  endforeach()
endfunction()

expect_rejects("--parallelism expects a positive integer, got \"banana\""
    --parallelism banana)
expect_rejects_cli_and_daemon(
    "--cache-ttl-ms expects a positive integer, got \"0\"" --cache-ttl-ms 0)
expect_rejects_cli_and_daemon(
    "--cache-budget expects a positive integer, got \"10x\"" --cache-budget 10x)
expect_rejects("--max-calls expects a positive integer, got \"-3\""
    --max-calls -3)
expect_rejects_cli_and_daemon(
    "--retry expects a positive integer, got \"99999999999999999999\""
    --retry 99999999999999999999)
expect_rejects("--pipeline-depth expects a positive integer value"
    --pipeline-depth)
expect_rejects("--cache-capacity expects a positive integer, got \"3.5\""
    --cache-capacity 3.5)

# Flags all three tools accept: zero is rejected everywhere (the replay
# driver used to clamp it to 1 silently), as are garbage, trailing junk,
# negatives, overflow and a missing value.
foreach(flag --parallelism --pipeline-depth --disjunct-concurrency)
  expect_all_reject("${flag} expects a positive integer, got \"0\"" ${flag} 0)
  expect_all_reject("${flag} expects a positive integer, got \"banana\""
      ${flag} banana)
  expect_all_reject("${flag} expects a positive integer, got \"4x\""
      ${flag} 4x)
  expect_all_reject("${flag} expects a positive integer, got \"-2\""
      ${flag} -2)
  expect_all_reject(
      "${flag} expects a positive integer, got \"99999999999999999999\""
      ${flag} 99999999999999999999)
  expect_all_reject("${flag} expects a positive integer value" ${flag})
endforeach()

message(STATUS "bad numeric flag values are rejected with diagnostics")
