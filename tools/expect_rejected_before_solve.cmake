# Runs `nwlbctl <ARGS>` and passes only when nwlbctl exits non-zero with a
# message on stderr and nothing on stdout.  The test's TIMEOUT says how soon:
# a value checked only after the bootstrap solve takes seconds to reject.
#
#   cmake -DNWLBCTL=<path> "-DARGS=<arg>;<arg>;..."
#         -P expect_rejected_before_solve.cmake
execute_process(COMMAND "${NWLBCTL}" ${ARGS}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(code EQUAL 0)
  message(FATAL_ERROR "nwlbctl ${ARGS} exited 0:\n${out}")
endif()
if(err STREQUAL "" OR NOT out STREQUAL "")
  message(FATAL_ERROR "nwlbctl ${ARGS} exited ${code} with stderr:\n${err}\n"
                      "and stdout:\n${out}")
endif()
