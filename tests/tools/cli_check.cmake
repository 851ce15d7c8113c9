# Runs one command-line binary and checks its exit code and, optionally,
# that its output contains a string:
#
#   cmake -DBIN=<path> "-DARGS=<space-separated args>" -DCODE=<exit code>
#         [-DEXPECT=<text>] -P cli_check.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL "${CODE}")
  message(FATAL_ERROR "${BIN} ${ARGS}: exit ${code}, expected ${CODE}\n${out}${err}")
endif()
if(DEFINED EXPECT)
  string(FIND "${out}${err}" "${EXPECT}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${BIN} ${ARGS}: output lacks '${EXPECT}'\n${out}${err}")
  endif()
endif()
