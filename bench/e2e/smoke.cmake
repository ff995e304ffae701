# The bench_e2e_smoke test: every workload at 2% size, then the traced
# run (which checks the mirror), then bench_compare of the run against
# itself, which must find no regression. Invoked by ctest with
# BENCH_E2E, BENCH_COMPARE, BENCHMARK_JSON and WORK_DIR set.

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_step name)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "bench_e2e_smoke: ${name} failed (${code})")
  endif()
endfunction()

run_step(run "${BENCH_E2E}" --scale 0.02 --out "${WORK_DIR}/run.json")
run_step(trace "${BENCH_E2E}" --scale 0.02 --trace --trace-dir "${WORK_DIR}"
         --out "${WORK_DIR}/trace.json")
run_step(compare "${BENCH_COMPARE}" --bounds "${BENCHMARK_JSON}"
         --base "${WORK_DIR}/run.json" --new "${WORK_DIR}/run.json")
