# Runs BIN with one argument ARG (or none) and fails unless its result
# matches RC whole (an exit code, or a pattern such as ".*aborted" for a
# child killed by SIGABRT, whose wording varies across CMake versions) and
# its stdout plus stderr matches MATCH (and, if given, does not match
# NOT_MATCH).
#
#   cmake -DBIN=<binary> [-DARG=<argument>] -DRC=<exit code> -DMATCH=<regex>
#         [-DNOT_MATCH=<regex>] -P bench_usage.cmake
execute_process(COMMAND "${BIN}" ${ARG}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc MATCHES "^(${RC})$")
  message(FATAL_ERROR "${BIN} ${ARG} exited ${rc}, not ${RC}:\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${MATCH}")
  message(FATAL_ERROR "${BIN} ${ARG} printed no '${MATCH}':\n${out}${err}")
endif()
if(DEFINED NOT_MATCH AND "${out}${err}" MATCHES "${NOT_MATCH}")
  message(FATAL_ERROR "${BIN} ${ARG} printed '${NOT_MATCH}':\n${out}${err}")
endif()
