# Runs `nwlbctl <ARGS>` and passes only when it exits 0 and its stdout
# equals the GOLDEN file byte for byte.  On a mismatch the actual stdout
# goes to <golden file name>.actual in the working directory; a deliberate
# behaviour change copies it over the golden file and says why in the commit.
#
#   cmake -DNWLBCTL=<path> "-DARGS=<arg>;<arg>;..." -DGOLDEN=<file>
#         -P expect_golden_stdout.cmake
execute_process(COMMAND "${NWLBCTL}" ${ARGS}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "nwlbctl ${ARGS} exited ${code}:\n${err}")
endif()
file(READ "${GOLDEN}" want)
if(NOT out STREQUAL want)
  get_filename_component(name "${GOLDEN}" NAME)
  file(WRITE "${name}.actual" "${out}")
  message(FATAL_ERROR "nwlbctl ${ARGS} printed other stdout than ${GOLDEN}; "
                      "the actual text is in ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
endif()
