# Smoke runs of the example binaries (ctest targets example_custom_protocol
# and example_trace_tools, label `fast`), so neither can bit-rot unseen.
#
#   EXAMPLE=custom_protocol: the binary must exit 0 and print the custom
#     router's `Freshness (custom)` row.
#   EXAMPLE=trace_tools: `record` a 1500 s trace of 8 buses into WORK_DIR,
#     then `replay` and `info` it; each command must exit 0. The trace is
#     longer than replay's 1200 s default traffic.ttl, which a full TTL
#     window needs.
#
# Invoked by CTest with -DEXAMPLE=... -DBINARY=... -DWORK_DIR=... (see
# CMakeLists.txt).

foreach(var EXAMPLE BINARY WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "example_smoke needs -D${var}=...")
  endif()
endforeach()

function(run_step)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rv OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rv STREQUAL "0")
    message(FATAL_ERROR "'${ARGN}' failed (exit ${rv}):\n${out}${err}")
  endif()
  set(step_out "${out}" PARENT_SCOPE)
endfunction()

if(EXAMPLE STREQUAL "custom_protocol")
  run_step(${BINARY})
  if(NOT step_out MATCHES "Freshness \\(custom\\)")
    message(FATAL_ERROR "no 'Freshness (custom)' row in:\n${step_out}")
  endif()
elseif(EXAMPLE STREQUAL "trace_tools")
  file(MAKE_DIRECTORY ${WORK_DIR})
  set(TRACE ${WORK_DIR}/smoke.trace)
  file(REMOVE ${TRACE})
  run_step(${BINARY} record ${TRACE} --nodes 8 --duration 1500)
  run_step(${BINARY} replay ${TRACE})
  run_step(${BINARY} info ${TRACE})
else()
  message(FATAL_ERROR "example_smoke: unknown EXAMPLE '${EXAMPLE}'")
endif()
