# Smoke run of one examples/paper_figures.sh arm (ctest targets
# dtnsim_figure_<arm>, label `fast` — runs in the sanitizer sweep).
#
# Runs the arm at toy scale (1 seed, 300 s, no full-TTL window so the
# 1200 s TTL fits) on two threads with the build's dtnsim first on PATH,
# and fails unless the script exits 0 and its dtnsim-sweep/1 result holds
# exactly the arm's grid of POINTS points.
#
# Invoked by CTest with -DDTNSIM=... -DSOURCE_DIR=... -DWORK_DIR=...
# -DARM=... -DPOINTS=... (see CMakeLists.txt).

foreach(var DTNSIM SOURCE_DIR WORK_DIR ARM POINTS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "paper_figures_smoke needs -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY ${WORK_DIR})
set(OUT ${WORK_DIR}/${ARM}.json)
file(REMOVE ${OUT} ${OUT}.journal)
get_filename_component(DTNSIM_DIR ${DTNSIM} DIRECTORY)
execute_process(COMMAND ${CMAKE_COMMAND} -E env "PATH=${DTNSIM_DIR}:$ENV{PATH}"
                        sh ${SOURCE_DIR}/examples/paper_figures.sh ${ARM}
                        --seeds 1 --set scenario.duration=300
                        --set scenario.full_ttl_window=false --threads 2
                        --out ${OUT}
                RESULT_VARIABLE rv OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rv STREQUAL "0")
  message(FATAL_ERROR "paper_figures.sh ${ARM} failed (exit ${rv}):\n${err}")
endif()
file(READ ${OUT} json)
string(REGEX MATCHALL "\"overrides\":" points "${json}")
list(LENGTH points count)
if(NOT count EQUAL POINTS)
  message(FATAL_ERROR "paper_figures.sh ${ARM} wrote ${count} points, "
                      "its grid has ${POINTS}")
endif()
