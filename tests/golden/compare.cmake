# Runs BIN, stores its stdout in OUT and fails unless OUT equals GOLDEN byte
# for byte.
#
#   cmake -DBIN=<binary> -DGOLDEN=<expected stdout> -DOUT=<actual stdout>
#         -P compare.cmake
#
# On a mismatch, `diff GOLDEN OUT` shows which figure rows moved. A change
# that means to move them regenerates GOLDEN from the same binary, run with
# the environment tests/CMakeLists.txt pins.
get_filename_component(out_dir "${OUT}" DIRECTORY)
file(MAKE_DIRECTORY "${out_dir}")
execute_process(COMMAND "${BIN}" OUTPUT_FILE "${OUT}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN} (actual: ${OUT})")
endif()
