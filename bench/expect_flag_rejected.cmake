# Runs `PROGRAM FLAG VALUE` and passes only when the program exits nonzero
# and its output names FLAG: a malformed flag value must be rejected loudly,
# never coerced to a number.
#
#   cmake -DPROGRAM=serve_replay -DFLAG=--tenants -DVALUE=2x \
#         -P expect_flag_rejected.cmake
execute_process(COMMAND "${PROGRAM}" "${FLAG}" "${VALUE}"
                RESULT_VARIABLE result
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(result EQUAL 0)
  message(FATAL_ERROR "${FLAG} ${VALUE} was accepted (exit 0)")
endif()
string(FIND "${out}" "${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${FLAG} ${VALUE} failed (${result}) without naming "
                      "the flag:\n${out}")
endif()
