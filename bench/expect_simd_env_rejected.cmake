# Runs `${COMMAND} --smoke` and passes only if it exits with status 2 and
# names the accepted INFRAME_SIMD levels on stderr. A crash (signal) or any
# other status fails.
#
#   cmake -DCOMMAND=<bench> -P expect_simd_env_rejected.cmake
execute_process(COMMAND ${COMMAND} --smoke
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE stderr)
message(STATUS "exit status: ${status}; stderr: ${stderr}")
if(NOT status STREQUAL "2")
    message(FATAL_ERROR "expected exit status 2, got '${status}'")
endif()
if(NOT stderr MATCHES "scalar, sse2, or neon")
    message(FATAL_ERROR "stderr does not name the accepted INFRAME_SIMD levels")
endif()
