# Record/replay CLI smoke test (docs/FLAKINESS.md). Records a campaign with
# --record, checks record mode leaves stdout byte-identical, replays one run
# by id expecting a byte-identical decision stream (exit 0), and exercises the
# strict flag parser: malformed --repetitions/--record/--replay values and
# --replay without --record must fail with a non-zero exit and the usage line.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${WASABI_CLI}" dump-corpus "${WORK_DIR}" RESULT_VARIABLE rc
                OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dump-corpus failed: ${rc}")
endif()

set(app "${WORK_DIR}/mapred")
set(record_dir "${WORK_DIR}/records")

execute_process(COMMAND "${WASABI_CLI}" test "${app}" --jobs 2
                OUTPUT_VARIABLE plain RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "plain run failed: ${rc}")
endif()
execute_process(COMMAND "${WASABI_CLI}" test "${app}" --jobs 2 --record "${record_dir}"
                OUTPUT_VARIABLE recorded RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "recording run failed: ${rc}")
endif()
if(NOT recorded STREQUAL plain)
  message(FATAL_ERROR "--record changed stdout")
endif()
if(NOT EXISTS "${record_dir}/MANIFEST.tsv")
  message(FATAL_ERROR "record directory has no MANIFEST.tsv")
endif()

# Replay run 0 (the first admitted spec always has id 0) with the same flags:
# exit 0 means the replayed decision stream and verdict are byte-identical.
execute_process(COMMAND "${WASABI_CLI}" test "${app}" --jobs 2
                        --record "${record_dir}" --replay 0
                OUTPUT_VARIABLE replay_out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "replay of run 0 failed (rc=${rc}): ${replay_out}")
endif()
if(NOT replay_out MATCHES "replayed run 0" AND NOT replay_out MATCHES "admission-skipped")
  message(FATAL_ERROR "unexpected replay output: ${replay_out}")
endif()

# A replay of a run id the record does not contain must fail cleanly.
execute_process(COMMAND "${WASABI_CLI}" test "${app}" --jobs 2
                        --record "${record_dir}" --replay 999999
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "replay of a nonexistent run id succeeded")
endif()

# Flag-parser rejection paths: each must exit non-zero and print usage.
# (Entries are CMake lists so multi-token flags pass as separate argv words.)
foreach(bad_args IN ITEMS
        "--repetitions;0" "--repetitions;-3" "--repetitions;x" "--repetitions"
        "--repetitions;2147483648"
        "--record" "--record=" "--replay;-1" "--replay;x" "--replay;5")
  execute_process(COMMAND "${WASABI_CLI}" test "${app}" ${bad_args}
                  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  if(rc EQUAL 0)
    message(FATAL_ERROR "CLI accepted bad option '${bad_args}'")
  endif()
  if(NOT err MATCHES "usage: wasabi")
    message(FATAL_ERROR "no usage line for bad option '${bad_args}': ${err}")
  endif()
endforeach()
