# Runs BENCH and fails unless its stdout equals the GOLDEN file byte for
# byte; on a mismatch the actual stdout is written to ACTUAL for diffing.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DACTUAL=<file> -P compare_stdout.cmake
execute_process(COMMAND ${BENCH} OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
file(READ ${GOLDEN} golden)
if(NOT actual STREQUAL golden)
  file(WRITE ${ACTUAL} "${actual}")
  message(FATAL_ERROR "stdout differs from ${GOLDEN}; see ${ACTUAL}")
endif()
