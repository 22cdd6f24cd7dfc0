# Runs the trace_replay example on one input case and checks its exit
# status and message:
#
#   cmake -DREPLAY=<trace_replay> -DCASE=<case> -DWORK=<dir> \
#         -P trace_replay_test.cmake
#
# synthetic     no argument: replays a synthesised trace, exits 0
# empty_csv     an empty file: exits 1, "no usable usage records"
# garbage_csv   a file of unparseable rows: the same
# missing_file  a path that does not exist: exits 1, "cannot open"
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(expect_rc 1)
if(CASE STREQUAL "synthetic")
  set(args "")
  set(expect_rc 0)
  set(expect_out "replay results")
elseif(CASE STREQUAL "empty_csv")
  file(WRITE "${WORK}/usage.csv" "")
  set(args "${WORK}/usage.csv")
  set(expect_err "trace_replay: no usable usage records in ")
elseif(CASE STREQUAL "garbage_csv")
  file(WRITE "${WORK}/usage.csv"
       "machine,time,cpu\nnot a trace\n,,,,\nm_x,y,z\n\"open quote\n")
  set(args "${WORK}/usage.csv")
  set(expect_err "trace_replay: no usable usage records in ")
elseif(CASE STREQUAL "missing_file")
  set(args "${WORK}/no-such-file.csv")
  set(expect_err "trace_replay: cannot open ")
else()
  message(FATAL_ERROR "unknown case '${CASE}'")
endif()

execute_process(COMMAND "${REPLAY}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${expect_rc}")
  message(FATAL_ERROR
          "trace_replay (${CASE}): exit '${rc}', expected ${expect_rc}\n"
          "${out}${err}")
endif()
if(DEFINED expect_out AND NOT out MATCHES "${expect_out}")
  message(FATAL_ERROR "trace_replay (${CASE}): no '${expect_out}' in\n${out}")
endif()
if(DEFINED expect_err AND NOT err MATCHES "${expect_err}")
  message(FATAL_ERROR "trace_replay (${CASE}): no '${expect_err}' in\n${err}")
endif()
