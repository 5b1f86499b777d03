# CTest script for the bad_trace_* targets (invoked via `cmake -P`).
#
# Records a small churn trace with BINARY, appends one hand-edited event
# that names an id the world lacks, and replays it.  The replay must exit
# with status 2 and a one-line message on stderr before any resolver
# starts; a crash (e.g. SIGABRT from an uncaught std::out_of_range) or any
# other status fails the test.
#
# Expected -D inputs: BINARY, CASE (session|pop), WORK_DIR.

foreach(var BINARY CASE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bad_trace.cmake: missing -D${var}")
  endif()
endforeach()

if(CASE STREQUAL "session")
  set(bad_event [=[{"type":"update_event","batch":0,"op":"withdraw","session":4000000,"prefix":"10.0.0.0/8"}]=])
elseif(CASE STREQUAL "pop")
  set(bad_event [=[{"type":"update_event","batch":0,"op":"upstream_down","pop":999,"which":0}]=])
else()
  message(FATAL_ERROR "bad_trace.cmake: unknown CASE '${CASE}' (valid: session|pop)")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(recorded "${WORK_DIR}/recorded_${CASE}.jsonl")
set(edited "${WORK_DIR}/edited_${CASE}.jsonl")
execute_process(
  COMMAND "${BINARY}" --scale small --seed 3 --batches 2 --events 3 --heartbeat 0
          --record "${recorded}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err
  TIMEOUT 120)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bad_trace: recording exited '${rc}', want 0\n${err}")
endif()

file(READ "${recorded}" trace)
file(WRITE "${edited}" "${trace}${bad_event}\n")
execute_process(
  COMMAND "${BINARY}" --scale small --seed 3 --replay "${edited}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err
  TIMEOUT 120)
string(STRIP "${err}" err)
string(FIND "${err}" "\n" newline)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "bad_trace: ${CASE} replay exited '${rc}', want 2\n${err}")
elseif(err STREQUAL "" OR NOT newline EQUAL -1)
  message(FATAL_ERROR "bad_trace: ${CASE} replay wants a one-line message, got:\n${err}")
endif()
message(STATUS "bad_trace: ${CASE} -> ${err}")
