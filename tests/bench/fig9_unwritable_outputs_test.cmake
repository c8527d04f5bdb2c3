# A figure bench that cannot write a requested output must fail: exit 1
# with "cannot write PATH: <status>", the form tbpoint_cli uses.  Every
# output path lies under F, a regular file, so no write can succeed.  The
# first run asks for all four outputs and fails at the first write
# (--metrics); the others each ask for one, to cover every writer.
#   cmake -DFIG9=<fig9_overall_ipc> -DWORK_DIR=<scratch dir>
#         -P fig9_unwritable_outputs_test.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(WRITE "${WORK_DIR}/F" "a regular file, not a directory\n")

function(expect_write_failure path)
  list(JOIN ARGN " " args)
  execute_process(
    COMMAND "${FIG9}" --scale 96 --benchmarks stream --no-cache ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT status EQUAL 1)
    message(FATAL_ERROR "fig9_overall_ipc ${args}: exit ${status}, want 1\n${err}")
  endif()
  string(FIND "${err}" "cannot write ${path}: " at)
  if(at EQUAL -1)
    message(FATAL_ERROR
      "fig9_overall_ipc ${args}: no 'cannot write ${path}: ' message\n${err}")
  endif()
endfunction()

expect_write_failure(F/x.json --manifest F/m.json --perf-json F/p.json
                     --metrics=F/x.json --csv F/c.csv)
expect_write_failure(F/m.json --manifest F/m.json)
expect_write_failure(F/p.json --perf-json F/p.json)
expect_write_failure(F/c.csv --csv F/c.csv)
