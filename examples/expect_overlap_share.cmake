# Writes a trace directory holding two fully overlapping spans of one name
# on two threads, runs `${COMMAND} <dir>` (telemetry_report) and passes only
# if that name's share of wall reads 1.000: time during which several
# threads run the same span counts once, never past the whole wall.
#
#   cmake -DCOMMAND=<telemetry_report> -DDIR=<scratch dir> -P expect_overlap_share.cmake
file(REMOVE_RECURSE ${DIR})
file(MAKE_DIRECTORY ${DIR})
file(WRITE ${DIR}/trace.json [=[
{"displayTimeUnit":"ms","traceEvents":[
{"name":"overlap.probe","cat":"inframe","ph":"X","pid":1,"tid":1,"ts":100,"dur":400},
{"name":"overlap.probe","cat":"inframe","ph":"X","pid":1,"tid":2,"ts":100,"dur":400}
]}
]=])
execute_process(COMMAND ${COMMAND} ${DIR}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE stdout)
message(STATUS "exit status: ${status}; stdout:\n${stdout}")
if(NOT status STREQUAL "0")
    message(FATAL_ERROR "expected exit status 0, got '${status}'")
endif()
if(NOT stdout MATCHES "\noverlap\\.probe +2 +[0-9.]+ +[0-9.]+ +[0-9.]+ +1\\.000 *\n")
    message(FATAL_ERROR "overlap.probe's share of wall is not 1.000")
endif()
