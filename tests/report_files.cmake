# Runs BIN with every report flag and checks the files it writes:
# scripts/validate_report.py on the run report and the Chrome trace, and
# scripts/critpath.py --check on the critical-path file.
#
#   cmake -DBIN=<binary> -DPYTHON=<python3> -DSCRIPTS=<scripts dir>
#         -DOUT=<output path prefix> -P report_files.cmake
get_filename_component(out_dir "${OUT}" DIRECTORY)
file(MAKE_DIRECTORY "${out_dir}")
set(metrics "${OUT}.metrics.json")
set(trace "${OUT}.trace.json")
set(critpath "${OUT}.critpath.json")
file(REMOVE "${metrics}" "${trace}" "${critpath}")

function(run_checked)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${ARGN} exited ${rc}:\n${out}${err}")
  endif()
  message(STATUS "${out}")
endfunction()

run_checked("${BIN}" --metrics-out=${metrics} --trace-out=${trace} --critpath-out=${critpath})
run_checked("${PYTHON}" "${SCRIPTS}/validate_report.py" "${metrics}" --trace "${trace}")
run_checked("${PYTHON}" "${SCRIPTS}/critpath.py" "${critpath}" --check)
