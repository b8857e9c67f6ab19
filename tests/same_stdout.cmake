# Runs BIN with argument ARG twice, once as is and once with the extra
# environment entry ENV (NAME=VALUE), and fails unless both exit 0 and print
# the same stdout.
#
#   cmake -DBIN=<binary> -DARG=<argument> -DENV=<NAME=VALUE> -P same_stdout.cmake
execute_process(COMMAND "${BIN}" ${ARG} RESULT_VARIABLE rc OUTPUT_VARIABLE plain)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARG} exited ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E env "${ENV}" "${BIN}" ${ARG}
                RESULT_VARIABLE rc OUTPUT_VARIABLE with_env)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${ENV} ${BIN} ${ARG} exited ${rc}")
endif()
if(NOT plain STREQUAL with_env)
  message(FATAL_ERROR "${ENV} moved the stdout of ${BIN} ${ARG}:\n"
                      "--- without it:\n${plain}\n--- with it:\n${with_env}")
endif()
