# Writes the model fingerprint and compares it with the baseline byte for
# byte.
#   cmake -DFINGERPRINT=<model_fingerprint> -DBASELINE=<model_fingerprint.json>
#         -DWORK_DIR=<scratch dir> -P model_fingerprint_test.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(
  COMMAND "${FINGERPRINT}" "${WORK_DIR}/model_fingerprint.json"
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "model_fingerprint failed: ${status}")
endif()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${BASELINE}"
          "${WORK_DIR}/model_fingerprint.json"
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR
    "${WORK_DIR}/model_fingerprint.json differs from ${BASELINE}: the "
    "profile or the simulator model moved.  If the change is intended, "
    "regenerate the baseline with model_fingerprint ${BASELINE} and set "
    "harness::kModelVersion to its crc32 (ModelVersionTest prints it).")
endif()
