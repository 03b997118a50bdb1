# Worker-crash recovery for the multi-process campaign fabric (ctest
# target dtnsim_worker_crash, label `fast` — runs in the sanitizer sweep).
#
# The acceptance property of `dtnsim sweep --workers N`, proven with a
# REAL SIGKILL delivered inside a real fork/exec'd worker (the in-process
# shard/merge properties live in harness_sweep_shard_test):
#
#   1. run the campaign single-process                      -> clean.json
#   2. run it with `--workers 3 --fault kill@point=2`: the worker that
#      owns grid point 2 raises SIGKILL mid-shard; the driver must notice
#      the signal death, restart that shard (resuming its journal), finish
#      the campaign with exit 0, merge, and remove the shard work dir
#   3. strip the volatile execution metadata (every line containing
#      `"exec` — the documented filterability contract of dtnsim-sweep/1)
#      from both files and require them BYTE-IDENTICAL
#   4. degrade gracefully: a shard whose points fail past its per-point
#      retries completes the campaign with exit 1 and KEEPS the shard
#      journals; rerunning the same fleet with `--resume` (fault gone)
#      retries exactly the gap and converges to the same bytes
#   5. stall: a worker that hangs with `--worker-timeout` set is killed,
#      its shard restarts without the fault, and the campaign still ends
#      with exit 0 and the same bytes
#   6. point timeout: an attempt that stalls past `--point-timeout` stops
#      at its deadline and fails its point (exit 1); with `--retries 1` the
#      retry succeeds and the bytes match, on threads and on workers
#   7. uneven seed groups: `--seeds 4 --workers 3` deals seeds {2, 1, 1}
#      over the whole grid; the bytes match a clean `--seeds 4` run, also
#      when `--fault kill@point=1` kills each shard's first attempt, and so
#      do those of `--workers 1`, whose one shard is the whole campaign
#
# Steps 1-4 run the point-residue deal (2 seeds on 3 workers: each shard
# owns the points index % 3 == i); steps 5 and 6 on 2 workers run the
# seed-group deal (one seed per worker).
#
# Invoked by CTest with -DDTNSIM=... -DSOURCE_DIR=... -DWORK_DIR=...
# (see CMakeLists.txt).

foreach(var DTNSIM SOURCE_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "dtnsim_worker_crash needs -D${var}=...")
  endif()
endforeach()

set(SCRATCH ${WORK_DIR}/worker_crash)
file(REMOVE_RECURSE ${SCRATCH})
file(MAKE_DIRECTORY ${SCRATCH})
set(FIXTURE ${SOURCE_DIR}/tests/cli/resume.cfg)
set(SWEEP_ARGS sweep ${FIXTURE} --axis protocol.copies=2,4,8 --seeds 2 --quiet)

function(read_filtered path out_var)
  file(STRINGS ${path} lines)
  set(kept "")
  foreach(line IN LISTS lines)
    if(NOT line MATCHES "\"exec")
      string(APPEND kept "${line}\n")
    endif()
  endforeach()
  set(${out_var} "${kept}" PARENT_SCOPE)
endfunction()

# 1. Uninterrupted single-process reference campaign.
execute_process(COMMAND ${DTNSIM} ${SWEEP_ARGS} --out clean.json
                WORKING_DIRECTORY ${SCRATCH}
                RESULT_VARIABLE rv OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rv STREQUAL "0")
  message(FATAL_ERROR "clean campaign failed (exit ${rv}):\n${err}")
endif()

# 2. The fleet, with the worker owning point 2 SIGKILLed mid-shard. The
#    driver must restart it and still finish clean.
execute_process(COMMAND ${DTNSIM} ${SWEEP_ARGS} --out fleet.json --workers 3
                        --fault kill@point=2
                WORKING_DIRECTORY ${SCRATCH}
                RESULT_VARIABLE rv OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rv STREQUAL "0")
  message(FATAL_ERROR "fleet campaign with a SIGKILLed worker did not recover "
                      "(exit ${rv}):\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "died on signal 9")
  message(FATAL_ERROR "SIGKILL never fired inside a worker — the fault was "
                      "not propagated:\n${err}")
endif()
if(NOT err MATCHES "restarting shard")
  message(FATAL_ERROR "driver never restarted the killed shard:\n${err}")
endif()
if(EXISTS ${SCRATCH}/fleet.json.journal.shards)
  message(FATAL_ERROR "clean fleet campaign left its shard work dir behind")
endif()

# 3. Bit-for-bit equivalence modulo the volatile `"exec` lines.
read_filtered(${SCRATCH}/clean.json clean)
read_filtered(${SCRATCH}/fleet.json fleet)
if(NOT clean STREQUAL fleet)
  message(FATAL_ERROR "fleet aggregates diverge from the single-process "
                      "campaign\n--- clean ---\n${clean}\n--- fleet ---\n"
                      "${fleet}")
endif()
if(clean STREQUAL "")
  message(FATAL_ERROR "filtered results are empty — the equivalence check "
                      "compared nothing")
endif()

# 4. Graceful degradation: point 1's attempts always throw, so its shard
#    completes with exit 1 (completed-with-failures — no restart), the
#    campaign publishes the survivors with exit 1, and the journals stay.
execute_process(COMMAND ${DTNSIM} ${SWEEP_ARGS} --out degraded.json --workers 3
                        --worker-retries 1 --fault throw@point=1:fires=99
                WORKING_DIRECTORY ${SCRATCH}
                RESULT_VARIABLE rv OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rv STREQUAL "1")
  message(FATAL_ERROR "degraded fleet campaign exited ${rv}, expected 1:\n${err}")
endif()
if(NOT err MATCHES "1 point\\(s\\) FAILED")
  message(FATAL_ERROR "degraded campaign did not report its failed point:\n${err}")
endif()
if(NOT EXISTS ${SCRATCH}/degraded.json.journal.shards/shard-1.journal)
  message(FATAL_ERROR "degraded campaign did not keep its shard journals — "
                      "nothing left to resume")
endif()
if(NOT EXISTS ${SCRATCH}/degraded.json)
  message(FATAL_ERROR "degraded campaign refused to publish the surviving "
                      "points")
endif()

# Resume the gap (fault gone): only the failed point reruns, exit 0, and
# the merged bytes converge to the reference.
execute_process(COMMAND ${DTNSIM} ${SWEEP_ARGS} --out degraded.json --workers 3
                        --resume
                WORKING_DIRECTORY ${SCRATCH}
                RESULT_VARIABLE rv OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rv STREQUAL "0")
  message(FATAL_ERROR "fleet --resume after degradation failed (exit ${rv}):\n${err}")
endif()
if(EXISTS ${SCRATCH}/degraded.json.journal.shards)
  message(FATAL_ERROR "successful fleet resume left the shard work dir behind")
endif()
read_filtered(${SCRATCH}/degraded.json degraded)
if(NOT clean STREQUAL degraded)
  message(FATAL_ERROR "degrade-then-resume aggregates diverge from the "
                      "single-process campaign\n--- clean ---\n${clean}\n"
                      "--- resumed ---\n${degraded}")
endif()
# 5. Stall: the worker owning point 0 hangs for a minute at that point's
#    first attempt and its journal stops growing. The driver must kill it
#    after the 2 s --worker-timeout and restart the shard WITHOUT the fault
#    (a restart that re-tripped it would stall until the shard gave up,
#    exit 1). Each point takes about 30 ms, so 2 s leaves room under ASan;
#    the TIMEOUT fails the case if the hung worker is waited out instead.
execute_process(COMMAND ${DTNSIM} ${SWEEP_ARGS} --out stalled.json --workers 2
                        --worker-timeout 2 --fault hang@point=0:ms=60000
                WORKING_DIRECTORY ${SCRATCH}
                TIMEOUT 45
                RESULT_VARIABLE rv OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rv STREQUAL "0")
  message(FATAL_ERROR "fleet campaign with a hung worker did not recover "
                      "(exit ${rv}):\n${err}")
endif()
if(NOT err MATCHES "shard 0/2 on local: no journal progress")
  message(FATAL_ERROR "driver never stopped the hung worker:\n${err}")
endif()
if(NOT err MATCHES "restarting shard 0/2")
  message(FATAL_ERROR "driver never restarted the stalled shard:\n${err}")
endif()
read_filtered(${SCRATCH}/stalled.json stalled)
if(NOT clean STREQUAL stalled)
  message(FATAL_ERROR "stall-then-restart aggregates diverge from the "
                      "single-process campaign\n--- clean ---\n${clean}\n"
                      "--- stalled ---\n${stalled}")
endif()
# 6. Point timeout: point 0's first attempt stalls a minute against a 0.5 s
#    --point-timeout and stops at its deadline, so each command ends in
#    about half a second. Without a retry point 0 fails with the timeout's
#    error (exit 1). With one, the retry succeeds and the bytes match the
#    reference, on threads and on workers; a worker that did not receive
#    the timeout would stall past the TIMEOUT.
set(HANG_ARGS ${SWEEP_ARGS} --fault hang@point=0:ms=60000 --point-timeout 0.5)
execute_process(COMMAND ${DTNSIM} ${HANG_ARGS} --out timed_out.json --threads 2
                WORKING_DIRECTORY ${SCRATCH}
                TIMEOUT 45
                RESULT_VARIABLE rv OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rv STREQUAL "1")
  message(FATAL_ERROR "campaign with a timed-out point exited ${rv}, expected 1:\n${err}")
endif()
file(READ ${SCRATCH}/timed_out.json timed_out)
string(FIND "${timed_out}" "\"error\": \"timed out after 0.5 s\"" at)
string(FIND "${err}" "protocol.copies=2: timed out after 0.5 s" err_at)
if(at EQUAL -1 OR err_at EQUAL -1)
  message(FATAL_ERROR "point 0 did not report its timeout:\n${err}\n${timed_out}")
endif()
foreach(mode "--threads;2" "--workers;2")
  string(REPLACE ";" "_" tag "${mode}")
  execute_process(COMMAND ${DTNSIM} ${HANG_ARGS} --retries 1 --out retried${tag}.json
                          ${mode}
                  WORKING_DIRECTORY ${SCRATCH}
                  TIMEOUT 45
                  RESULT_VARIABLE rv OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rv STREQUAL "0")
    message(FATAL_ERROR "retried timeout (${mode}) exited ${rv}, expected 0:\n${err}")
  endif()
  read_filtered(${SCRATCH}/retried${tag}.json retried)
  if(NOT clean STREQUAL retried)
    message(FATAL_ERROR "timeout-then-retry aggregates (${mode}) diverge from the "
                        "single-process campaign\n--- clean ---\n${clean}\n"
                        "--- retried ---\n${retried}")
  endif()
endforeach()
# 7. Uneven seed groups. With 4 seeds on 3 workers each worker runs the
#    whole grid over its seeds {2, 1, 1}, and the merge folds each point's
#    ranges in seed order: the bytes equal a clean 4-seed campaign. The
#    fault rides every shard's first attempt, and every shard holds point
#    1, so each is killed once and resumed. One worker runs the whole
#    campaign as shard 0/1 and must keep its journal for the merge.
set(SWEEP4_ARGS sweep ${FIXTURE} --axis protocol.copies=2,4,8 --seeds 4 --quiet)
execute_process(COMMAND ${DTNSIM} ${SWEEP4_ARGS} --out clean4.json
                WORKING_DIRECTORY ${SCRATCH}
                RESULT_VARIABLE rv OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rv STREQUAL "0")
  message(FATAL_ERROR "clean 4-seed campaign failed (exit ${rv}):\n${err}")
endif()
read_filtered(${SCRATCH}/clean4.json clean4)
foreach(tag uneven killed single)
  set(extra --workers 3)
  if(tag STREQUAL "killed")
    list(APPEND extra --fault kill@point=1)
  elseif(tag STREQUAL "single")
    set(extra --workers 1)
  endif()
  execute_process(COMMAND ${DTNSIM} ${SWEEP4_ARGS} --out ${tag}.json ${extra}
                  WORKING_DIRECTORY ${SCRATCH}
                  RESULT_VARIABLE rv OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rv STREQUAL "0")
    message(FATAL_ERROR "seed-group fleet (${tag}) exited ${rv}, expected 0:\n${err}")
  endif()
  if(EXISTS ${SCRATCH}/${tag}.json.journal.shards)
    message(FATAL_ERROR "clean seed-group fleet (${tag}) left its shard work dir behind")
  endif()
  if(tag STREQUAL "killed")
    foreach(shard 0 1 2)
      if(NOT err MATCHES "restarting shard ${shard}/3")
        message(FATAL_ERROR "shard ${shard}/3 was not killed and restarted:\n${err}")
      endif()
    endforeach()
  endif()
  read_filtered(${SCRATCH}/${tag}.json grouped)
  if(NOT clean4 STREQUAL grouped)
    message(FATAL_ERROR "seed-group fleet (${tag}) aggregates diverge from the "
                        "single-process campaign\n--- clean ---\n${clean4}\n"
                        "--- fleet ---\n${grouped}")
  endif()
endforeach()
message(STATUS "worker-crash recovery, degrade-then-resume, stall-restart, "
               "point-timeout and seed-group equivalence hold")
