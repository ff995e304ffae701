# tsan_gate.cmake — the tier-1 hook for the ThreadSanitizer preset: the
# `concurrency`-, `operator`- and `delta`-labeled tests (parallel waves,
# the shared cache's single-flight protocol, clock overlap accounting,
# pipelined execution, the operator-DAG executor's racing disjunct chains,
# domain enumeration's waves and its dom-assisted disjuncts on the DAG,
# standing-query maintenance, the backend's lazily built indexes and
# seeded fault injection under parallel waves) must be race-clean, not
# just green.
#
# Run as a script:
#   cmake -DREPO_ROOT=<repo> -P tsan_gate.cmake
#
# Configures the repo's `tsan` preset into build-tsan (incremental across
# runs), builds exactly the binaries behind the gated labels — discovered
# from ctest itself so new tests are picked up automatically —
# and runs them under TSAN_OPTIONS=halt_on_error=1. Any data race fails
# the gate. Set UCQN_SKIP_TSAN_GATE=1 to skip (e.g. a toolchain without
# -fsanitize=thread).
#
# Wired as the `tsan_concurrency_gate` ctest (labels: tier1;tsan).

cmake_minimum_required(VERSION 3.21)

if(NOT DEFINED REPO_ROOT)
  message(FATAL_ERROR "usage: cmake -DREPO_ROOT=<repo> -P tsan_gate.cmake")
endif()

if(DEFINED ENV{UCQN_SKIP_TSAN_GATE} AND NOT "$ENV{UCQN_SKIP_TSAN_GATE}" STREQUAL "")
  message(STATUS "tsan gate skipped (UCQN_SKIP_TSAN_GATE is set)")
  return()
endif()

set(tsan_dir "${REPO_ROOT}/build-tsan")

execute_process(
    COMMAND "${CMAKE_COMMAND}" --preset tsan
    WORKING_DIRECTORY "${REPO_ROOT}"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tsan preset configure failed:\n${out}\n${err}")
endif()

# The gated test names double as their target names (ucqn_add_test
# registers `add_test(NAME name COMMAND name)`), so the labels are the
# single source of truth for what this gate builds.
execute_process(
    COMMAND "${CMAKE_CTEST_COMMAND}" -N -L "concurrency|operator|delta"
    WORKING_DIRECTORY "${tsan_dir}"
    OUTPUT_VARIABLE listing
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "listing concurrency/operator/delta tests failed:\n${err}")
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
      "no concurrency/operator/delta-labeled tests found in ${tsan_dir}")
endif()

execute_process(
    COMMAND "${CMAKE_COMMAND}" --build "${tsan_dir}"
        --target ${targets} -j 4
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tsan build failed:\n${out}\n${err}")
endif()

set(ENV{TSAN_OPTIONS} "halt_on_error=1 second_deadlock_stack=1")
execute_process(
    COMMAND "${CMAKE_CTEST_COMMAND}" -L "concurrency|operator|delta"
        --output-on-failure
    WORKING_DIRECTORY "${tsan_dir}"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
      "concurrency/operator/delta tests failed under ThreadSanitizer")
endif()

message(STATUS
    "concurrency/operator/delta tests are race-clean under ThreadSanitizer")
