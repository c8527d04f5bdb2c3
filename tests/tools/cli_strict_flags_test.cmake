# Every binary that parses its command line with harness::Args rejects a
# flag it does not read, a malformed or out-of-range value, a switch given a
# value, a missing value and a stray argument: exit 2, before any work, so
# nothing is written (no --no-cache file, no spool request, no store or
# cache directory).  One cheap valid form per binary must still exit 0.
# Every case runs and every failure is reported, so running this script
# against a build of other sources lists each form that build accepts.
#   cmake -DCLI=<tbpoint_cli> -DFUZZ=<tbp-fuzz> -DDAEMON=<tbpointd>
#         -DCLIENT=<tbp-client> -DTABLE6=<table6_benchmarks>
#         -DFIG5=<fig5_ipc_variation> -DFIG9=<fig9_overall_ipc>
#         -DWORK_DIR=<scratch dir> -P cli_strict_flags_test.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# run(<exit status> <text the output must contain> <command...>)
function(run want_status want_text)
  list(JOIN ARGN " " args)
  execute_process(
    COMMAND ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(FIND "${out}${err}" "${want_text}" at)
  if(NOT status EQUAL want_status OR at EQUAL -1)
    set_property(GLOBAL APPEND PROPERTY failures
      "${args}: exit ${status}, want ${want_status} and '${want_text}'\n${out}${err}")
  endif()
endfunction()

# reject(<text> <command...>): exit 2 with <text>, and the work dir is left
# exactly as it was.
function(reject want_text)
  file(GLOB_RECURSE before LIST_DIRECTORIES true "${WORK_DIR}/*")
  run(2 "${want_text}" ${ARGN})
  file(GLOB_RECURSE after LIST_DIRECTORIES true "${WORK_DIR}/*")
  if(NOT before STREQUAL after)
    list(JOIN ARGN " " args)
    set_property(GLOBAL APPEND PROPERTY failures "${args}: wrote ${after}")
  endif()
endfunction()

# expect_file(<path>): a valid form wrote the file it was asked for.
function(expect_file path)
  if(NOT EXISTS "${WORK_DIR}/${path}")
    set_property(GLOBAL APPEND PROPERTY failures "no ${path} written")
  endif()
endfunction()

# tbpoint_cli
reject("unknown flag --scael" "${CLI}" run stream --scael 64 --jobs 1)
reject("missing value for --manifest" "${CLI}" run stream --jobs 1 --manifest)
reject("--no-inter takes no value" "${CLI}" run stream --jobs 1 --no-inter=1)
reject("unknown flag --launch" "${CLI}" run stream --jobs 1 --launch 0)
reject("--jobs given twice" "${CLI}" run stream --jobs 1 --jobs=2)
reject("unexpected argument 'stray'" "${CLI}" run stream stray --jobs 1)
reject("invalid value for --sms: must be in [1, 1024]"
       "${CLI}" run stream --jobs 1 --sms 0 --manifest run.json)
reject("invalid value for --warps: must be in [1, 1024]"
       "${CLI}" compare stream --jobs 1 --warps 0)
reject("invalid value for --warps: too small for kernel bfs_kernel"
       "${CLI}" compare bfs --jobs 1 --warps 8)
reject("unknown workload 'nosuch' (accepted: bfs," "${CLI}" run nosuch)
reject("invalid value for --warps: must be >= 1"
       "${CLI}" lemma41 --samples 10 --warps 0)
reject("invalid value for --p: must be in [0, 1]"
       "${CLI}" lemma41 --samples 10 --p 1.5)
reject("invalid value for --m" "${CLI}" lemma41 --samples 10 --m -5)

# tbp-fuzz
reject("unknown flag --sede" "${FUZZ}" run --seeds 1 --sede 5 --json fuzz.json)
reject("invalid value for --jobs: must be >= 1" "${FUZZ}" run --seeds 1 --jobs 0)
reject("invalid value for --sms: must be in [1, 1024]"
       "${FUZZ}" run --seeds 1 --sms 0)

# tbpointd and tbp-client
reject("unknown flag --jbos" "${DAEMON}" --spool spool-a --once --jbos 2)
reject("invalid value for --scale" "${CLIENT}" submit lbm --spool spool-b
       --scale 4294967297 --sms 4294967310 --id x1)
reject("invalid value for --sms" "${CLIENT}" submit lbm --spool spool-b
       --sms 4294967310 --id x2)
reject("invalid value for --warps: too small for kernel mst" "${CLIENT}"
       submit mst --spool spool-b --warps 15 --id x3)

# The benches: each reads only its own flags, and a `--` token is never a
# flag's value.
reject("unknown flag --manifest" "${TABLE6}" --benchmarks stream --scale 64
       --manifest t6.json --metrics m.json --jobs 3)
reject("unknown flag --scale" "${FIG5}" --samples 10 --scale 8 --no-cache
       --benchmarks bfs)
reject("missing value for --csv" "${FIG9}" --scale 64 --benchmarks stream
       --csv --no-cache)

# One cheap valid form per binary.
run(0 "binomial" "${CLI}" list)
run(0 "application: predicted IPC" "${CLI}" run stream --jobs 1 --scale=64
    --gto --no-intra --manifest run.json)
expect_file(run.json)
run(0 "Lemma 4.1 holds" "${CLI}" lemma41 --p 0.1 --m=400 --warps 4
    --samples 100)
run(0 "0/0 seeds ok" "${FUZZ}" run --seeds 0 --sms 2 --out . --json fuzz.json)
expect_file(fuzz.json)
run(0 "tbp-service-stats-v1" "${DAEMON}" --spool spool-c --once --jobs 1
    --stats stats.json)
expect_file(stats.json)
run(0 "submitted ok-1" "${CLIENT}" submit stream --spool spool-c --scale 48
    --sms 4 --id ok-1)
run(0 "Table VI" "${TABLE6}" --benchmarks stream --scale=64 --seed 0x7b90147)
run(0 "Figure 5" "${FIG5}" --samples=10)
run(0 "Figure 9" "${FIG9}" --scale 64 --benchmarks stream --no-cache
    --csv=rows.csv)
expect_file(rows.csv)
if(EXISTS "${WORK_DIR}/tbpoint_cache")
  set_property(GLOBAL APPEND PROPERTY failures "--no-cache wrote tbpoint_cache")
endif()

get_property(failures GLOBAL PROPERTY failures)
if(failures)
  list(LENGTH failures n)
  list(JOIN failures "\n" report)
  message(FATAL_ERROR "${n} command line(s) misbehaved:\n${report}")
endif()
