# Run one result bench and compare its stdout byte for byte with its
# committed golden. The fresh stdout is kept at ACTUAL for inspection.
#
#   cmake -DBENCH=<exe> -DGOLDEN=<file> -DACTUAL=<file> \
#         -P compare_stdout.cmake
#
# scripts/regenerate_results.sh --update-goldens rewrites the goldens.

get_filename_component(actual_dir "${ACTUAL}" DIRECTORY)
file(MAKE_DIRECTORY "${actual_dir}")

execute_process(COMMAND "${BENCH}"
                OUTPUT_FILE "${ACTUAL}"
                ERROR_VARIABLE bench_stderr
                RESULT_VARIABLE bench_status)
if(NOT bench_status EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${bench_status}:\n"
                        "${bench_stderr}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(differs)
    find_program(DIFF_PROGRAM diff)
    if(DIFF_PROGRAM)
        execute_process(COMMAND "${DIFF_PROGRAM}" -u "${GOLDEN}"
                                "${ACTUAL}")
    endif()
    message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN}")
endif()
