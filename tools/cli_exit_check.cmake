# Runs fedshare_cli on one config and checks its exit-code contract:
# the exit status, optionally stdout against a golden file byte for
# byte, optionally a regex that stderr must match, and optionally a
# regex stdout must match and one it must not. ARGS holds extra CLI
# flags, space-separated. Used as a ctest script (see
# tools/CMakeLists.txt):
#
#   cmake -DCLI=<fedshare_cli> -DCONFIG=<config.ini> -DEXPECT_CODE=<n>
#         [-DARGS=<flags>] [-DGOLDEN=<file>] [-DSTDERR_MATCH=<regex>]
#         [-DSTDOUT_MATCH=<regex>] [-DSTDOUT_NOT_MATCH=<regex>]
#         -P tools/cli_exit_check.cmake
separate_arguments(extra UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" "${CONFIG}" ${extra}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL EXPECT_CODE)
  message(FATAL_ERROR
          "fedshare_cli ${CONFIG} exited ${code}, expected ${EXPECT_CODE}\n"
          "stderr: ${err}")
endif()
if(DEFINED GOLDEN)
  file(READ "${GOLDEN}" golden)
  if(NOT out STREQUAL golden)
    message(FATAL_ERROR "stdout of fedshare_cli ${CONFIG} differs from ${GOLDEN}")
  endif()
endif()
if(DEFINED STDERR_MATCH AND NOT err MATCHES "${STDERR_MATCH}")
  message(FATAL_ERROR
          "stderr of fedshare_cli ${CONFIG} does not match "
          "'${STDERR_MATCH}': ${err}")
endif()
if(DEFINED STDOUT_MATCH AND NOT out MATCHES "${STDOUT_MATCH}")
  message(FATAL_ERROR
          "stdout of fedshare_cli ${CONFIG} does not match '${STDOUT_MATCH}'")
endif()
if(DEFINED STDOUT_NOT_MATCH AND out MATCHES "${STDOUT_NOT_MATCH}")
  message(FATAL_ERROR
          "stdout of fedshare_cli ${CONFIG} matches '${STDOUT_NOT_MATCH}'")
endif()
