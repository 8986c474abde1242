# Runs `nwlbctl <FLAG> <VALUE>` and passes only when nwlbctl exits non-zero
# with a message on stderr that names both the flag and the value.
#
#   cmake -DNWLBCTL=<path> -DFLAG=<--flag> -DVALUE=<text> -P expect_rejected_flag.cmake
execute_process(COMMAND "${NWLBCTL}" "${FLAG}" "${VALUE}"
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(code EQUAL 0)
  message(FATAL_ERROR "nwlbctl ${FLAG} ${VALUE} exited 0:\n${out}")
endif()
string(FIND "${err}" "${FLAG}" flag_at)
string(FIND "${err}" "'${VALUE}'" value_at)
if(flag_at EQUAL -1 OR value_at EQUAL -1)
  message(FATAL_ERROR
          "nwlbctl ${FLAG} ${VALUE} exited ${code} without naming the flag "
          "and the value:\n${err}")
endif()
