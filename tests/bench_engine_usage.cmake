# bench_engine.py given an unknown flag must print usage and exit nonzero
# before it runs a benchmark or writes a file.
execute_process(COMMAND ${PYTHON} ${SCRIPT} --bogus
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "bench_engine.py --bogus exited 0:\n${out}${err}")
endif()
if(NOT err MATCHES "usage: bench_engine.py")
  message(FATAL_ERROR "bench_engine.py --bogus printed no usage:\n${out}${err}")
endif()
