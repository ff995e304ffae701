# check_workload_stdio.cmake — tier-1 smoke for the workload harness.
#
# Run as a script:
#   cmake -DUCQN_WORKLOAD=<ucqn_workload> -DUCQND=<ucqnd> \
#       -DWORK_DIR=<scratch dir> -P check_workload_stdio.cmake
#
# Generates a small seeded workload, then replays it three times:
#   1. through a child `ucqnd --stdio` (the wire path — a few hundred
#      protocol lines, every request must come back ok) with --report-json;
#   2. in-process on the simulated clock with --report-json, checking the
#      report lands, carries a percentile field, and digests the same
#      answers as the wire replay (one replay loop, two transports);
#   3. over the wire again with --cache-budget 1, which must cost more
#      physical calls than path 1: the daemon flags reach the child ucqnd.
#      (Not compared with an in-process budgeted run: cache shards hash
#      packed dictionary ids, which may differ between two processes.)
#
# Wired as the `workload_stdio_check` ctest (labels: tier1;workload;server).

cmake_minimum_required(VERSION 3.19)  # string(JSON)

if(NOT DEFINED UCQN_WORKLOAD OR NOT DEFINED UCQND OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
      "usage: cmake -DUCQN_WORKLOAD=<bin> -DUCQND=<bin> -DWORK_DIR=<dir> -P check_workload_stdio.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(workload_file "${WORK_DIR}/smoke_workload.txt")

# Small but non-trivial: 120 templates over a 4-link chain, 300 requests.
# No injected failures — every request must succeed on both paths.
execute_process(
    COMMAND "${UCQN_WORKLOAD}" --generate --out "${workload_file}"
        --seed 11 --chain-length 4 --enumerable 2 --decoys 2
        --domain-size 16 --tuples 32 --queries 120
        --requests 300 --tenants 3
    OUTPUT_VARIABLE gen_out
    ERROR_VARIABLE gen_err
    RESULT_VARIABLE gen_rc)
if(NOT gen_rc EQUAL 0)
  message(FATAL_ERROR "generate failed (${gen_rc}): ${gen_out}${gen_err}")
endif()
if(NOT EXISTS "${workload_file}")
  message(FATAL_ERROR "generate reported success but wrote no file")
endif()

# Runs a replay of the smoke workload with the trailing flags, requires
# every request ok and a --report-json file, and stores the report's text
# in `out_var`.
function(replay_ok label report_file out_var)
  execute_process(
      COMMAND "${UCQN_WORKLOAD}" --replay "${workload_file}" --expect-all-ok
          --report-json "${report_file}" ${ARGN}
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err
      RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${label} replay failed (${rc}): ${out}${err}")
  endif()
  if(NOT out MATCHES "replayed 300 requests [^\n]*: 300 ok")
    message(FATAL_ERROR "${label} replay did not answer all 300 requests ok: ${out}")
  endif()
  if(NOT EXISTS "${report_file}")
    message(FATAL_ERROR "${label} replay wrote no --report-json file")
  endif()
  file(READ "${report_file}" report_text)
  set(${out_var} "${report_text}" PARENT_SCOPE)
endfunction()

# Path 1: the wire. Every request travels as a protocol line through a
# child `ucqnd --stdio`.
replay_ok("via-daemon" "${WORK_DIR}/wire_report.json" wire_report
    --via-daemon "${UCQND}" --workdir "${WORK_DIR}")

# Path 2: in-process on the simulated clock, with the JSON report.
replay_ok("in-process" "${WORK_DIR}/smoke_report.json" report_text
    --cache-ttl-ms 1000)
foreach(field "\"p99_us\"" "\"hit_curve\"" "\"answers_hash\"")
  if(NOT report_text MATCHES "${field}")
    message(FATAL_ERROR "replay report is missing ${field}: ${report_text}")
  endif()
endforeach()
string(JSON wire_hash GET "${wire_report}" answers_hash)
string(JSON proc_hash GET "${report_text}" answers_hash)
if(NOT wire_hash STREQUAL proc_hash)
  message(FATAL_ERROR "the wire and in-process replays answered differently: "
      "answers_hash ${wire_hash} vs ${proc_hash}")
endif()

# Path 3: a one-byte cache budget on the wire evicts every entry, so the
# child ucqnd must repeat calls the unbudgeted run served from cache.
replay_ok("via-daemon --cache-budget 1" "${WORK_DIR}/wire_budget_report.json"
    budget_report --via-daemon "${UCQND}" --workdir "${WORK_DIR}"
    --cache-budget 1)
string(JSON wire_calls GET "${wire_report}" physical_calls)
string(JSON budget_calls GET "${budget_report}" physical_calls)
if(NOT budget_calls GREATER wire_calls)
  message(FATAL_ERROR "--cache-budget 1 did not reach the wire daemon: "
      "${budget_calls} physical calls, unbudgeted ${wire_calls}")
endif()

message(STATUS "workload smoke ok: 300 requests over the wire and in-process, "
    "answers_hash ${wire_hash} on both; wire physical calls ${wire_calls}, "
    "${budget_calls} under --cache-budget 1")
