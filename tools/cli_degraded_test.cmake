# Degraded-mode and robustness smoke test for the CLI (docs/ROBUSTNESS.md):
#   1. a corpus tree with one malformed source analyzes to completion — exit 0,
#      "degraded": true, the skipped file listed, bugs still reported;
#   2. a healthy tree stays byte-identical to the legacy array format;
#   3. --chaos output is deterministic across worker counts;
#   4. option validation: bad --jobs / --max-quarantined / --chaos values are
#      rejected with exit code 2 and the usage line — including a --jobs
#      above the fixed 1024 bound, an integer that overflows 64 bits, and a
#      signed chaos seed;
#   5. flag scoping: a flag on a subcommand whose handler never reads it
#      (static --scale, identify --chaos, dump-corpus --fail-fast, ...) exits 2.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${WASABI_CLI}" dump-corpus "${WORK_DIR}" RESULT_VARIABLE rc
                OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dump-corpus failed: ${rc}")
endif()

set(app "${WORK_DIR}/mapred")

# Healthy baseline: the analyze alias must emit the plain legacy array.
execute_process(COMMAND "${WASABI_CLI}" analyze "${app}" --json --jobs 2
                OUTPUT_VARIABLE clean_json RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "clean analyze failed: ${rc}")
endif()
string(JSON clean_kind ERROR_VARIABLE err TYPE "${clean_json}")
if(NOT err STREQUAL "NOTFOUND" OR NOT clean_kind STREQUAL "ARRAY")
  message(FATAL_ERROR "clean analyze output is not a JSON array (${clean_kind}, ${err})")
endif()

# Corrupt the tree: one unparseable file must degrade the report, not kill it.
file(WRITE "${app}/broken.mj" "class Broken { void f( { if } }\n")
execute_process(COMMAND "${WASABI_CLI}" analyze "${app}" --json --jobs 2
                OUTPUT_VARIABLE degraded_json ERROR_VARIABLE degraded_err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "degraded analyze must still exit 0, got: ${rc}")
endif()
string(JSON degraded ERROR_VARIABLE err GET "${degraded_json}" "degraded")
if(NOT err STREQUAL "NOTFOUND" OR NOT degraded STREQUAL "ON")
  message(FATAL_ERROR "missing \"degraded\": true (got '${degraded}', err='${err}')")
endif()
string(JSON skipped_path ERROR_VARIABLE err GET "${degraded_json}" "skipped_files" 0 "path")
if(NOT skipped_path STREQUAL "broken.mj")
  message(FATAL_ERROR "skipped_files does not name broken.mj (got '${skipped_path}')")
endif()
string(JSON bug_count ERROR_VARIABLE err LENGTH "${degraded_json}" "bugs")
if(NOT err STREQUAL "NOTFOUND" OR bug_count EQUAL 0)
  message(FATAL_ERROR "degraded report lost its bugs (count='${bug_count}', err='${err}')")
endif()
if(NOT degraded_err MATCHES "skipping broken.mj")
  message(FATAL_ERROR "stderr does not explain the skipped file: ${degraded_err}")
endif()
file(REMOVE "${app}/broken.mj")

# Chaos containment smoke: same seed, different worker counts, same bytes.
execute_process(COMMAND "${WASABI_CLI}" test "${app}" --json --chaos 42:0.1 --jobs 2
                OUTPUT_VARIABLE chaos_two RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "chaos run (2 jobs) failed: ${rc}")
endif()
execute_process(COMMAND "${WASABI_CLI}" test "${app}" --json --chaos 42:0.1 --jobs 4
                OUTPUT_VARIABLE chaos_four RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "chaos run (4 jobs) failed: ${rc}")
endif()
if(NOT chaos_two STREQUAL chaos_four)
  message(FATAL_ERROR "--chaos output differs between 2 and 4 workers")
endif()

# Option validation: every bad value exits 2 with the usage line. Each quoted
# item is one option set (IN ITEMS keeps "--jobs;0" whole; a list variable
# would split it into "--jobs" and "0" and test each alone).
foreach(bad_args IN ITEMS
        "--jobs;0" "--jobs;-3" "--jobs;abc" "--jobs;4294967297" "--jobs;2147483648"
        "--max-quarantined;-1" "--max-quarantined;x"
        "--chaos;banana" "--chaos;42:1.5" "--fail-fast=1"
        "--jobs;1025" "--max-quarantined;99999999999999999999" "--chaos;-1:0.1"
        "--storm;--storm-duration;600001" "--storm;--storm-duration;9223372036854775807")
  execute_process(COMMAND "${WASABI_CLI}" test "${app}" ${bad_args}
                  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "CLI must exit 2 for '${bad_args}', got ${rc}")
  endif()
  if(NOT err MATCHES "usage: wasabi")
    message(FATAL_ERROR "no usage line for bad option '${bad_args}': ${err}")
  endif()
endforeach()

# Good values of the new flags must be accepted.
execute_process(COMMAND "${WASABI_CLI}" test "${app}" --json --fail-fast
                        --max-quarantined 5 --chaos 7:0
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "CLI rejected valid robustness flags: ${rc}")
endif()

# A flag is accepted only by the subcommands whose handler reads it: one that
# would be silently ignored exits 2 with the usage line instead of 0. Each
# quoted item is a whole command line.
foreach(bad_args IN ITEMS
        "static;${app};--scale;2" "static;${app};--chaos;1:0.1"
        "static;${app};--record;${WORK_DIR}/rec" "static;${app};--jobs;2"
        "identify;${app};--chaos;1:0.1" "identify;${app};--json"
        "identify;${app};--repetitions;3" "storm;${app};--cache-dir=${WORK_DIR}/c"
        "storm;${app};--engine=tree" "test;${app};--scale;2"
        "repair;${app};--record;${WORK_DIR}/rec"
        "dump-corpus;${WORK_DIR}/unused;--fail-fast"
        "dump-corpus;${WORK_DIR}/unused;--json")
  execute_process(COMMAND "${WASABI_CLI}" ${bad_args}
                  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "CLI must exit 2 for '${bad_args}', got ${rc}")
  endif()
  if(NOT err MATCHES "does not apply to the")
    message(FATAL_ERROR "no scoping error for '${bad_args}': ${err}")
  endif()
endforeach()

# The flags each handler does read stay accepted.
foreach(good_args IN ITEMS
        "static;${app};--json;--cache-dir=${WORK_DIR}/static-cache"
        "identify;${app};--cache-dir=${WORK_DIR}/identify-cache")
  execute_process(COMMAND "${WASABI_CLI}" ${good_args} RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "CLI rejected '${good_args}': ${rc}")
  endif()
endforeach()
