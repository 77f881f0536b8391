# Run a program and check its exit status and how many of its stdout
# lines match each of a list of patterns.
#
#   cmake -DPROGRAM=<exe> [-DARGS=<arg,arg,...>] [-DSTDIN=<line,...>]
#         -DEXIT=zero|nonzero
#         -DLINE1=<regex> -DCOUNT1=<n> [-DLINE2=<regex> -DCOUNT2=<n> ...]
#         -P expect_output.cmake
#
# ARGS and STDIN are comma-separated; STDIN lines are fed to the
# program's standard input.  Patterns are CMake regular expressions
# matched against one stdout line at a time.

if(NOT DEFINED PROGRAM OR NOT DEFINED EXIT)
    message(FATAL_ERROR "expect_output: PROGRAM and EXIT are required")
endif()

string(REPLACE "," ";" args "${ARGS}")
set(input_args)
if(DEFINED STDIN)
    string(REPLACE "," "\n" stdin_text "${STDIN}\n")
    string(MD5 stdin_name "${PROGRAM}${ARGS}${STDIN}")
    set(stdin_file "${CMAKE_CURRENT_BINARY_DIR}/stdin_${stdin_name}.txt")
    file(WRITE "${stdin_file}" "${stdin_text}")
    set(input_args INPUT_FILE "${stdin_file}")
endif()

execute_process(COMMAND "${PROGRAM}" ${args}
    ${input_args}
    OUTPUT_VARIABLE out
    RESULT_VARIABLE status)
message("${out}")

if(EXIT STREQUAL "zero" AND NOT status EQUAL 0)
    message(FATAL_ERROR "expect_output: exit status ${status}, expected 0")
elseif(EXIT STREQUAL "nonzero" AND status EQUAL 0)
    message(FATAL_ERROR "expect_output: exit status 0, expected nonzero")
endif()

# One list element per line (escape list separators first).
string(REPLACE ";" "\\;" out "${out}")
string(REPLACE "\n" ";" lines "${out}")

set(i 1)
while(DEFINED LINE${i})
    set(seen 0)
    foreach(line IN LISTS lines)
        if(line MATCHES "${LINE${i}}")
            math(EXPR seen "${seen} + 1")
        endif()
    endforeach()
    if(NOT seen EQUAL "${COUNT${i}}")
        message(FATAL_ERROR "expect_output: ${seen} lines match "
            "'${LINE${i}}', expected ${COUNT${i}}")
    endif()
    math(EXPR i "${i} + 1")
endwhile()
