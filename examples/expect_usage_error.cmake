# Runs PROGRAM with the single argument ARG and fails unless it exits
# with code 1 and prints a usage line on stderr: the Cli's answer to
# bad input, as opposed to a panic (abort, exit code 134).
#
#   cmake -DPROGRAM=<binary> -DARG=<argument> -P expect_usage_error.cmake
execute_process(COMMAND "${PROGRAM}" "${ARG}"
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "usage: ")
    message(FATAL_ERROR
            "${PROGRAM} ${ARG}: expected exit code 1 and a usage "
            "message, got exit '${rc}' and stderr:\n${err}")
endif()
