# Runs `nwlbctl [<LEAD>] <FLAG> [<VALUE>]` and passes only when nwlbctl exits
# non-zero with a message on stderr that names the flag and, when there is
# one, the value.  LEAD is one leading argument that selects a run (say
# --live); leave out VALUE for a flag that takes none.  With INLINE set, the
# flag and the value go as one `<FLAG>=<VALUE>` token.
#
#   cmake -DNWLBCTL=<path> [-DLEAD=<arg>] -DFLAG=<--flag> [-DVALUE=<text>]
#         [-DINLINE=ON] -P expect_rejected_flag.cmake
set(args ${LEAD})
if(INLINE)
  list(APPEND args "${FLAG}=${VALUE}")
else()
  list(APPEND args "${FLAG}")
  if(DEFINED VALUE)
    list(APPEND args "${VALUE}")
  endif()
endif()
execute_process(COMMAND "${NWLBCTL}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(code EQUAL 0)
  message(FATAL_ERROR "nwlbctl ${args} exited 0:\n${out}")
endif()
string(FIND "${err}" "${FLAG}" flag_at)
set(value_at 0)
if(DEFINED VALUE)
  string(FIND "${err}" "'${VALUE}'" value_at)
endif()
if(flag_at EQUAL -1 OR value_at EQUAL -1)
  message(FATAL_ERROR
          "nwlbctl ${args} exited ${code} without naming the flag "
          "and the value:\n${err}")
endif()
