# Run a command and pass only if every check on what it did holds
# (ctest's PASS_REGULAR_EXPRESSION alone ignores the exit status):
#
#   cmake [-DEXIT_CODE=N] [-DMESSAGE=<regex>]
#         [-DOUT_DIR=<dir> -DCHECKS=<list> -DPYTHON=<python3>
#          -DRUN_BENCHMARK=<run_benchmark>]
#         -P expect_exit.cmake -- <program> [args...]
#
# EXIT_CODE  the exit status the command must return (default 0).
# MESSAGE    a regular expression its stderr must match.
# OUT_DIR    the command runs in this directory, emptied first, and its
#            stdout is kept there as stdout.txt. CHECKS then inspect
#            what it left; each is a keyword and its arguments:
#   STDOUT <golden>           stdout.txt is byte-identical to <golden>
#   SAME_AS <dir>             OUT_DIR and <dir> hold the same file
#                             names, each byte-identical
#   BENCH <baseline> <record>...
#                             tools/compare_bench.py passes
#   VALIDATE <tool> <arg>...  tools/validate_<tool>.py passes; each
#                             argument not starting with -- is a glob
#                             that must match at least one file
#   EVERY_CELL <record> <key> every element of the record's "cells"
#                             has the member <key>
#   REPLAY <record>           each cell's "cell" line, run alone by
#                             run_benchmark --json, writes the same
#                             cell text but for host_ms and
#                             events_per_sec; no line appears twice
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
    message(FATAL_ERROR "usage: cmake [-DEXIT_CODE=N] [-DMESSAGE=RE] "
        "[-DOUT_DIR=DIR -DCHECKS=LIST -DPYTHON=EXE] "
        "-P expect_exit.cmake -- <program> [args...]")
endif()
if(NOT DEFINED EXIT_CODE)
    set(EXIT_CODE 0)
endif()

if(OUT_DIR)
    file(REMOVE_RECURSE "${OUT_DIR}")
    file(MAKE_DIRECTORY "${OUT_DIR}")
    execute_process(COMMAND ${command}
                    WORKING_DIRECTORY "${OUT_DIR}"
                    RESULT_VARIABLE status
                    OUTPUT_FILE "${OUT_DIR}/stdout.txt"
                    ERROR_VARIABLE err)
    set(out "(stdout in ${OUT_DIR}/stdout.txt)\n")
else()
    execute_process(COMMAND ${command}
                    RESULT_VARIABLE status
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
endif()
if(NOT status STREQUAL "${EXIT_CODE}")
    message(FATAL_ERROR "exit status '${status}', expected ${EXIT_CODE}"
                        "\n${out}${err}")
endif()
if(DEFINED MESSAGE)
    if(NOT err MATCHES "${MESSAGE}")
        message(FATAL_ERROR "stderr does not match '${MESSAGE}':\n${err}")
    endif()
endif()

set(failures "")

# Run a tools/ script; a nonzero exit is a failure showing its output.
function(run_tool script)
    if(NOT PYTHON)
        list(APPEND failures "${script}: no Python 3 interpreter")
    else()
        execute_process(
            COMMAND ${PYTHON} ${CMAKE_CURRENT_LIST_DIR}/../tools/${script}
                    ${ARGN}
            WORKING_DIRECTORY "${OUT_DIR}"
            RESULT_VARIABLE tool_status
            OUTPUT_VARIABLE tool_out
            ERROR_VARIABLE tool_out)
        if(NOT tool_status EQUAL 0)
            list(APPEND failures "${script} ${ARGN}:\n${tool_out}")
        endif()
    endif()
    set(failures "${failures}" PARENT_SCOPE)
endfunction()

function(same_file a b)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${a}" "${b}"
                    RESULT_VARIABLE differ)
    if(NOT differ EQUAL 0)
        list(APPEND failures "${a} differs from ${b}")
    endif()
    set(failures "${failures}" PARENT_SCOPE)
endfunction()

# The text of the cell of record text @p json whose line is @p line,
# without its host timings: the writer puts "ok" last in every cell.
function(cell_text json line out)
    string(FIND "${json}" "{\"cell\":\"${line}\"" begin)
    string(SUBSTRING "${json}" ${begin} -1 text)
    string(FIND "${text}" "\"ok\":" ok)
    string(SUBSTRING "${text}" ${ok} -1 rest)
    string(FIND "${rest}" "}" close)
    math(EXPR length "${ok} + ${close} + 1")
    string(SUBSTRING "${text}" 0 ${length} text)
    string(REGEX REPLACE "\"(host_ms|events_per_sec)\":[^,]*," ""
           text "${text}")
    set(${out} "${text}" PARENT_SCOPE)
endfunction()

function(replay_cells record)
    file(READ "${OUT_DIR}/${record}" json)
    string(JSON cells LENGTH "${json}" cells)
    math(EXPR last_cell "${cells} - 1")
    set(lines "")
    foreach(i RANGE ${last_cell})
        string(JSON line GET "${json}" cells ${i} cell)
        list(FIND lines "${line}" seen)
        if(NOT seen EQUAL -1)
            list(APPEND failures "${record}: cell '${line}' appears twice")
            continue()
        endif()
        list(APPEND lines "${line}")
        string(REPLACE " " ";" words "${line}")
        file(REMOVE "${OUT_DIR}/replay.json")
        execute_process(
            COMMAND ${RUN_BENCHMARK} ${words} --json=replay.json
            WORKING_DIRECTORY "${OUT_DIR}"
            RESULT_VARIABLE replay_status
            OUTPUT_QUIET
            ERROR_VARIABLE replay_err)
        if(NOT replay_status EQUAL 0)
            list(APPEND failures "run_benchmark ${line}: exit status "
                                 "${replay_status}\n${replay_err}")
            continue()
        endif()
        file(READ "${OUT_DIR}/replay.json" replayed)
        cell_text("${json}" "${line}" recorded_cell)
        cell_text("${replayed}" "${line}" replayed_cell)
        if(NOT recorded_cell STREQUAL replayed_cell)
            list(APPEND failures "${record}: cell '${line}' replays as\n"
                "${replayed_cell}\nnot as recorded\n${recorded_cell}")
        endif()
    endforeach()
    file(REMOVE "${OUT_DIR}/replay.json")
    set(failures "${failures}" PARENT_SCOPE)
endfunction()

function(run_check kind)
    set(args ${ARGN})
    if(kind STREQUAL "STDOUT")
        same_file("${OUT_DIR}/stdout.txt" "${args}")
    elseif(kind STREQUAL "SAME_AS")
        file(GLOB mine RELATIVE "${OUT_DIR}" "${OUT_DIR}/*")
        file(GLOB theirs RELATIVE "${args}" "${args}/*")
        if(NOT mine STREQUAL theirs)
            list(APPEND failures
                "${OUT_DIR} holds [${mine}], ${args} holds [${theirs}]")
        endif()
        foreach(name IN LISTS mine)
            same_file("${OUT_DIR}/${name}" "${args}/${name}")
        endforeach()
    elseif(kind STREQUAL "BENCH")
        run_tool(compare_bench.py ${args})
    elseif(kind STREQUAL "VALIDATE")
        list(POP_FRONT args tool)
        set(tool_args "")
        foreach(arg IN LISTS args)
            if(arg MATCHES "^--")
                list(APPEND tool_args "${arg}")
                continue()
            endif()
            file(GLOB matched RELATIVE "${OUT_DIR}" "${OUT_DIR}/${arg}")
            if(NOT matched)
                list(APPEND failures "no file matches ${OUT_DIR}/${arg}")
            endif()
            list(APPEND tool_args ${matched})
        endforeach()
        run_tool(validate_${tool}.py ${tool_args})
    elseif(kind STREQUAL "EVERY_CELL")
        list(GET args 0 record)
        list(GET args 1 key)
        file(READ "${OUT_DIR}/${record}" json)
        string(JSON cells LENGTH "${json}" cells)
        math(EXPR last_cell "${cells} - 1")
        foreach(i RANGE ${last_cell})
            string(JSON member ERROR_VARIABLE missing
                   GET "${json}" cells ${i} ${key})
            if(missing)
                string(JSON name GET "${json}" cells ${i} workload)
                string(JSON config GET "${json}" cells ${i} config)
                list(APPEND failures
                    "${record}: cell ${name}/${config} has no ${key}")
            endif()
        endforeach()
    elseif(kind STREQUAL "REPLAY")
        replay_cells(${args})
    else()
        message(FATAL_ERROR "unknown check '${kind}'")
    endif()
    set(failures "${failures}" PARENT_SCOPE)
endfunction()

# Each keyword starts a check; the arguments up to the next are its own.
set(kind "")
foreach(token IN LISTS CHECKS ITEMS END)
    if(token MATCHES "^(STDOUT|SAME_AS|BENCH|VALIDATE|EVERY_CELL|REPLAY|END)$")
        if(kind)
            run_check(${kind} ${check_args})
        endif()
        set(kind ${token})
        set(check_args "")
    else()
        list(APPEND check_args "${token}")
    endif()
endforeach()

if(failures)
    list(JOIN failures "\n" report)
    message(FATAL_ERROR "${report}")
endif()
