# Simulates mri's launch 1, the launch with the most L1-MSHR overflow, and
# compares its metrics with the baseline byte for byte.
#   cmake -DCLI=<tbpoint_cli> -DBASELINE=<mri_launch1_metrics.json>
#         -DWORK_DIR=<scratch dir> -P mri_launch1_test.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(
  COMMAND "${CLI}" simulate mri --launch 1 --jobs 1
          --metrics "${WORK_DIR}/metrics.json"
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_QUIET
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "tbpoint_cli simulate failed: ${status}")
endif()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${BASELINE}"
          "${WORK_DIR}/metrics.json"
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR
    "${WORK_DIR}/metrics.json differs from ${BASELINE}: a simulated result "
    "moved.  If the change is intended, regenerate the baseline with "
    "tbpoint_cli simulate mri --launch 1 --jobs 1 --metrics ${BASELINE}")
endif()
