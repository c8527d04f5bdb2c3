# Runs fig9_overall_ipc on the committed baseline's slice and compares the
# manifest with the baseline byte for byte.
#   cmake -DFIG9=<fig9_overall_ipc> -DBASELINE=<fig9_manifest.json>
#         -DWORK_DIR=<scratch dir> -P fig9_baseline_test.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(
  COMMAND "${FIG9}" --scale 48 --benchmarks stream,bfs --no-cache
          "--metrics=${WORK_DIR}/metrics.json"
          --manifest "${WORK_DIR}/manifest.json"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "fig9_overall_ipc failed: ${status}")
endif()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${BASELINE}"
          "${WORK_DIR}/manifest.json"
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR
    "${WORK_DIR}/manifest.json differs from ${BASELINE}: a simulated result "
    "moved.  If the change is intended, regenerate the baseline with "
    "fig9_overall_ipc --scale 48 --benchmarks stream,bfs --no-cache "
    "--metrics=metrics.json --manifest ${BASELINE}")
endif()
