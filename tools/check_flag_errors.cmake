# check_flag_errors.cmake — bad numeric flag values must be rejected with
# a one-line diagnostic naming the flag, never crash or silently misparse.
#
# Run as a script:
#   cmake -DUCQNC=<ucqnc> -DUCQND=<ucqnd> -DUCQN_WORKLOAD=<ucqn_workload>
#         -P check_flag_errors.cmake
#
# Covers the numeric flags (--parallelism, --cache-ttl-ms, --cache-budget,
# --max-calls, --pipeline-depth, ...) against garbage tokens, trailing
# junk, zero/negative values, overflow, and a missing value, and the
# word-valued --cost-model and --metrics against a bad or missing word. All three
# tools parse counts with one helper (tools/flag_parse.h) and the eight
# runtime flags with one parser (ParseRuntimeFlag); ucqnd and
# ucqn_workload add the admission counts (ParseDaemonFlag). Each shared
# flag is checked against every tool that accepts it in one loop.
#
# Wired as the `flag_value_check` ctest (labels: tier1;docs).

cmake_minimum_required(VERSION 3.16)  # script mode: enables IN_LIST (CMP0057)

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

# ucqnc-only count flags.
expect_rejects("--max-calls expects a positive integer, got \"-3\""
    --max-calls -3)
expect_rejects("--cache-capacity expects a positive integer, got \"3.5\""
    --cache-capacity 3.5)
# ucqnc's one word-valued flag of its own.
expect_rejects("--metrics expects text or json, got \"banana\""
    --metrics banana)
expect_rejects("--metrics expects text or json" --metrics)

# The nine count flags ucqnd and ucqn_workload share through one parser
# (ParseDaemonFlag), plus ucqnc for the six runtime ones: zero is rejected
# everywhere (ucqn_workload used to accept it for five of them), as are
# garbage, trailing junk, negatives, overflow and a missing value.
set(ucqnc_count_flags --retry --parallelism --pipeline-depth
    --disjunct-concurrency --cache-ttl-ms --cache-budget)
foreach(flag --retry --parallelism --pipeline-depth --disjunct-concurrency
        --cache-ttl-ms --cache-budget --max-in-flight --max-queued
        --tenant-max-concurrent)
  set(binaries "${UCQND}" "${UCQN_WORKLOAD}")
  if(flag IN_LIST ucqnc_count_flags)
    list(APPEND binaries "${UCQNC}")
  endif()
  foreach(binary IN LISTS binaries)
    foreach(bad 0 banana 4x -2 99999999999999999999)
      expect_tool_rejects("${binary}"
          "${flag} expects a positive integer, got \"${bad}\"" ${flag} ${bad})
    endforeach()
    expect_tool_rejects("${binary}" "${flag} expects a positive integer value"
        ${flag})
  endforeach()
endforeach()
foreach(binary "${UCQNC}" "${UCQND}" "${UCQN_WORKLOAD}")
  expect_tool_rejects("${binary}"
      "--cost-model expects static or adaptive, got \"psychic\""
      --cost-model psychic)
  # In range for the parser but not for the field it fills: an attempt
  # count past INT_MAX used to wrap negative and abort ucqnd's first
  # query, and a millisecond count past LLONG_MAX / 1000 to wrap its
  # microsecond field.
  expect_tool_rejects("${binary}"
      "--retry expects a positive integer, got \"3000000000\""
      --retry 3000000000)
  expect_tool_rejects("${binary}"
      "--cache-ttl-ms expects a positive integer, got \"18446744073709552\""
      --cache-ttl-ms 18446744073709552)
endforeach()
expect_tool_rejects("${UCQND}"
    "--tenant-deadline-ms expects a positive integer, got \"18446744073709552\""
    --tenant-deadline-ms 18446744073709552)
foreach(binary "${UCQNC}" "${UCQND}")
  expect_tool_rejects("${binary}"
      "--cache-negative-ttl-ms expects a positive integer, got \"18446744073709552\""
      --cache-negative-ttl-ms 18446744073709552)
endforeach()

# The wire replay is lockstep over one pipe: concurrent client threads
# cannot share it, so the combination is refused rather than serialized.
expect_tool_rejects("${UCQN_WORKLOAD}" "--threads must be 1"
    --replay workload.txt --via-daemon ucqnd --threads 2)

message(STATUS "bad numeric flag values are rejected with diagnostics")
