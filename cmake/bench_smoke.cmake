# bench_smoke driver (ctest target `bench_smoke`, label `slow`).
#
# 1. Smoke-runs every tracked bench binary at tiny sizes into WORK_DIR so
#    the benches cannot bit-rot (their FATAL cross-checks run: fixed-dt vs
#    event-kernel metrics, 1- vs 3-thread sweep aggregates, one contact
#    pass per key at 1 and 3 threads, hub replay).
# 2. Validates the COMMITTED perf history at the repo root: each
#    BENCH_*.json must exist and carry its required fields, so a bench
#    refactor cannot silently stop emitting a tracked number.
#
# Invoked by CTest with -DBENCH_WORLD_STEP=..., -DBENCH_SWEEP=...,
# -DSOURCE_DIR=..., -DWORK_DIR=... (see CMakeLists.txt).

function(run_bench label)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rv)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "bench_smoke: ${label} failed with exit code ${rv}")
  endif()
endfunction()

function(require_fields json_file)
  set(path ${SOURCE_DIR}/${json_file})
  if(NOT EXISTS ${path})
    message(FATAL_ERROR "bench_smoke: committed ${json_file} is missing")
  endif()
  file(READ ${path} content)
  foreach(field ${ARGN})
    string(FIND "${content}" "\"${field}\"" at)
    if(at EQUAL -1)
      message(FATAL_ERROR
              "bench_smoke: ${json_file} is missing required field \"${field}\"")
    endif()
  endforeach()
endfunction()

run_bench(bench_world_step ${BENCH_WORLD_STEP} --steps 200 --smoke
          --out ${WORK_DIR}/BENCH_world_step.smoke.json)
run_bench(bench_sweep ${BENCH_SWEEP} --smoke
          --out ${WORK_DIR}/BENCH_sweep.smoke.json)

require_fields(BENCH_world_step.json
               bench workload steps points steps_per_sec
               contact_events_per_sec buffer_pressure dropped
               event_kernel fixed_steps_per_sec event_steps_per_sec speedup
               allocs_per_step engine)
require_fields(BENCH_sweep.json
               bench campaign runs contact_passes runs_per_sec points_per_sec
               aggregates_identical allocs_per_reused_seed
               hub_load hub_runs_per_sec hub_points_per_sec)
