# ubsan_gate.cmake — the tier-1 hook for the UndefinedBehaviorSanitizer
# preset: the `dictionary`-, `operator`-, `delta`- and `planner`-labeled
# tests (term dictionary, packed cache keys, columnar frontiers, the
# encoded executor corpus, the operator-DAG regression corpus, standing
# queries, the cost model and the planner) must be UB-clean, not just
# green — the id-packing code memcpys raw uint32s in and out of byte
# strings, and the planner's connectivity rule shifts 64-bit masks,
# exactly the kind of code UBSan exists for. The preset also defines
# _GLIBCXX_ASSERTIONS, so out-of-range operator[] on the id columns
# aborts the test instead of reading past a vector.
#
# Run as a script:
#   cmake -DREPO_ROOT=<repo> -P ubsan_gate.cmake
#
# Configures the repo's `ubsan` preset into build-ubsan (incremental
# across runs), builds exactly the binaries behind the gated labels
# — discovered from ctest itself so new tests are picked up automatically
# — and runs them under UBSAN_OPTIONS=halt_on_error=1. Any undefined
# behavior fails the gate. Set UCQN_SKIP_UBSAN_GATE=1 to skip (e.g. a
# toolchain without -fsanitize=undefined).
#
# Wired as the `ubsan_dictionary_gate` ctest (labels: tier1;ubsan).

cmake_minimum_required(VERSION 3.21)

if(NOT DEFINED REPO_ROOT)
  message(FATAL_ERROR "usage: cmake -DREPO_ROOT=<repo> -P ubsan_gate.cmake")
endif()

if(DEFINED ENV{UCQN_SKIP_UBSAN_GATE} AND NOT "$ENV{UCQN_SKIP_UBSAN_GATE}" STREQUAL "")
  message(STATUS "ubsan gate skipped (UCQN_SKIP_UBSAN_GATE is set)")
  return()
endif()

set(ubsan_dir "${REPO_ROOT}/build-ubsan")

execute_process(
    COMMAND "${CMAKE_COMMAND}" --preset ubsan
    WORKING_DIRECTORY "${REPO_ROOT}"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ubsan preset configure failed:\n${out}\n${err}")
endif()

# The gated test names double as their target names (ucqn_add_test
# registers `add_test(NAME name COMMAND name)`), so the labels are the
# single source of truth for what this gate builds. The bench smoke tests
# (bench/CMakeLists.txt) share the `planner` label but are named after no
# target; they stay out of the gate.
set(gate_labels "dictionary|operator|delta|planner")
set(gate_exclude "_smoke$")
execute_process(
    COMMAND "${CMAKE_CTEST_COMMAND}" -N -L "${gate_labels}" -E "${gate_exclude}"
    WORKING_DIRECTORY "${ubsan_dir}"
    OUTPUT_VARIABLE listing
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "listing dictionary/operator/delta/planner tests failed:\n${err}")
endif()
string(REGEX MATCHALL "Test +#[0-9]+: +[A-Za-z0-9_]+" lines "${listing}")
set(targets "")
foreach(line IN LISTS lines)
  string(REGEX REPLACE ".*: +" "" name "${line}")
  list(APPEND targets "${name}")
endforeach()
list(REMOVE_DUPLICATES targets)
if(targets STREQUAL "")
  message(FATAL_ERROR
      "no dictionary/operator/delta/planner-labeled tests found in ${ubsan_dir}")
endif()

execute_process(
    COMMAND "${CMAKE_COMMAND}" --build "${ubsan_dir}"
        --target ${targets} -j 4
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ubsan build failed:\n${out}\n${err}")
endif()

set(ENV{UBSAN_OPTIONS} "print_stacktrace=1 halt_on_error=1")
execute_process(
    COMMAND "${CMAKE_CTEST_COMMAND}" -L "${gate_labels}" -E "${gate_exclude}"
        --output-on-failure
    WORKING_DIRECTORY "${ubsan_dir}"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
      "dictionary/operator/delta/planner tests failed under UndefinedBehaviorSanitizer")
endif()

message(STATUS
    "dictionary/operator/delta/planner tests are UB-clean under UndefinedBehaviorSanitizer")
