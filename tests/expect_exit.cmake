# Run a command and pass only if it exits with EXIT_CODE and its
# stderr matches the regular expression MESSAGE:
#
#   cmake -DEXIT_CODE=2 -DMESSAGE=<regex> -P expect_exit.cmake \
#         -- <program> [args...]
#
# (ctest's PASS_REGULAR_EXPRESSION alone ignores the exit status.)
set(command)
set(seen_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 1 ${last})
    if(seen_separator)
        list(APPEND command "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(seen_separator TRUE)
    endif()
endforeach()
if(NOT command)
    message(FATAL_ERROR "usage: cmake -DEXIT_CODE=N -DMESSAGE=RE "
                        "-P expect_exit.cmake -- <program> [args...]")
endif()

execute_process(COMMAND ${command}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "${EXIT_CODE}")
    message(FATAL_ERROR "exit status '${status}', expected ${EXIT_CODE}"
                        "\n${out}${err}")
endif()
if(NOT err MATCHES "${MESSAGE}")
    message(FATAL_ERROR "stderr does not match '${MESSAGE}':\n${err}")
endif()
