# CTest script for the bad_flags target (invoked via `cmake -P`).
#
# Runs BINARY once per malformed numeric flag in CASES and requires each run
# to exit with status 2 and a one-line message on stderr, before any world
# is built.  A run that succeeds, crashes, or exits otherwise fails the
# test.  Finally `--help` must still exit 0.
#
# Expected -D inputs: BINARY, CASES (;-list of "flag value" pairs; a value of
# EMPTY stands for the empty string).

foreach(var BINARY CASES)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bad_flags.cmake: missing -D${var}")
  endif()
endforeach()

set(failures 0)
foreach(case IN LISTS CASES)
  separate_arguments(pair UNIX_COMMAND "${case}")
  list(GET pair 0 flag)
  list(GET pair 1 value)
  if(value STREQUAL "EMPTY")
    set(value "")
  endif()
  execute_process(
    COMMAND "${BINARY}" "${flag}" "${value}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 60)
  string(STRIP "${err}" err)
  string(FIND "${err}" "\n" newline)
  if(NOT rc EQUAL 2)
    message(SEND_ERROR "bad_flags: ${flag} '${value}' exited '${rc}', want 2\n${err}")
    math(EXPR failures "${failures} + 1")
  elseif(err STREQUAL "" OR NOT newline EQUAL -1)
    message(SEND_ERROR "bad_flags: ${flag} '${value}' wants a one-line message, got:\n${err}")
    math(EXPR failures "${failures} + 1")
  else()
    message(STATUS "bad_flags: ${flag} '${value}' -> ${err}")
  endif()
endforeach()

execute_process(COMMAND "${BINARY}" --help RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(SEND_ERROR "bad_flags: --help exited '${rc}', want 0")
  math(EXPR failures "${failures} + 1")
endif()

if(failures GREATER 0)
  message(FATAL_ERROR "bad_flags: ${failures} failure(s)")
endif()
