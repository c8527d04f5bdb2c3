# The tbpoint_cli command surface: the subcommands the usage line names
# work, the profile/regions steps are gone (usage error, exit 2), and a
# zero, non-numeric or unknown --samples flag is a usage error in both
# lemma41 and the Fig. 5 bench instead of a table of NaNs.
#   cmake -DCLI=<tbpoint_cli> -DFIG5=<fig5_ipc_variation> -DWORK_DIR=<scratch dir>
#         -P tbpoint_cli_test.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# expect(<exit status> <text the output must contain, or ""> <command...>)
function(expect want_status want_text)
  list(JOIN ARGN " " args)
  execute_process(
    COMMAND ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT status EQUAL want_status)
    message(FATAL_ERROR "${args}: exit ${status}, want ${want_status}\n${out}${err}")
  endif()
  string(FIND "${out}${err}" "${want_text}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${args}: no '${want_text}' in the output\n${out}${err}")
  endif()
endfunction()

set(usage "usage: tbpoint_cli <list|run|compare|simulate|lemma41>")
expect(0 "mri" "${CLI}" list)
expect(0 "application: predicted IPC" "${CLI}" run stream --jobs 1)
expect(2 "${usage}" "${CLI}" profile stream)
expect(2 "${usage}" "${CLI}" regions x --occupancy 84)
expect(2 "invalid value for --samples" "${CLI}" lemma41 --samples 0)
expect(2 "invalid value for --samples" "${FIG5}" --samples abc)
expect(2 "invalid value for --samples" "${FIG5}" --samples 0)
expect(2 "usage:" "${FIG5}" --sample 100)
