# Rejected-input driver: run ${REJECT_COMMAND} with the ;-separated
# ${REJECT_ARGS}, require exit code ${EXPECT_RC} and ${EXPECT_STDERR} on
# stderr. Used to pin that the CLI refuses flags it no longer has.
foreach(var REJECT_COMMAND EXPECT_RC EXPECT_STDERR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} not set")
  endif()
endforeach()

execute_process(
  COMMAND ${REJECT_COMMAND} ${REJECT_ARGS}
  OUTPUT_VARIABLE reject_stdout
  ERROR_VARIABLE reject_stderr
  RESULT_VARIABLE reject_rc
)

if(NOT reject_rc EQUAL EXPECT_RC)
  message(FATAL_ERROR
      "${REJECT_COMMAND} ${REJECT_ARGS} exited with ${reject_rc}, "
      "expected ${EXPECT_RC}; stderr:\n${reject_stderr}")
endif()

string(FIND "${reject_stderr}" "${EXPECT_STDERR}" found)
if(found EQUAL -1)
  message(FATAL_ERROR
      "stderr lacks \"${EXPECT_STDERR}\":\n${reject_stderr}")
endif()
