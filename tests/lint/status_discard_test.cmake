# The Status/Result contract is the compiler's: with tbp_warnings' options a
# dropped Status or Result is a compile error in every tree, TBP_WERROR or
# not.  The fixture drops one in five ways, each on a line that starts with
# DROP.  Compiling it must fail with a nodiscard error on each of those
# lines, and the same calls cast to void (-DEXPLICIT_DISCARD) must compile
# without a diagnostic, so an unrelated error cannot pass for the five.
#   cmake -DCXX=<compiler> "-DFLAGS=<tbp_warnings options>"
#         -DSOURCE_DIR=<repo root> -P status_discard_test.cmake
set(fixture "${SOURCE_DIR}/tests/lint/fixtures/status_discard.cpp")
set(compile "${CXX}" -std=c++20 -fsyntax-only -I "${SOURCE_DIR}/src" ${FLAGS})

# The DROP lines' numbers.  ';' and brackets would split or group CMake
# list elements, so they are neutralized before the text becomes a list.
file(READ "${fixture}" text)
string(REGEX REPLACE "[];[]" "_" text "${text}")
string(REPLACE "\n" ";" lines "${text}")
set(number 0)
set(drop_lines "")
foreach(line IN LISTS lines)
  math(EXPR number "${number} + 1")
  if(line MATCHES "^  DROP ")
    list(APPEND drop_lines ${number})
  endif()
endforeach()
list(LENGTH drop_lines n_drops)
if(NOT n_drops EQUAL 5)
  message(FATAL_ERROR "${fixture}: want 5 DROP lines, found ${n_drops}")
endif()

set(failures "")
list(JOIN compile " " command)
execute_process(COMMAND ${compile} "${fixture}"
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(status EQUAL 0)
  list(APPEND failures "dropping a Status or Result compiled")
endif()
foreach(line IN LISTS drop_lines)
  if(NOT "${out}${err}" MATCHES "status_discard\\.cpp:${line}:[0-9]+: error: [^\n]*nodiscard")
    list(APPEND failures "no nodiscard error on line ${line}")
  endif()
endforeach()

execute_process(COMMAND ${compile} -DEXPLICIT_DISCARD "${fixture}"
  RESULT_VARIABLE status OUTPUT_VARIABLE clean_out ERROR_VARIABLE clean_err)
if(NOT status EQUAL 0 OR NOT "${clean_out}${clean_err}" STREQUAL "")
  list(APPEND failures "the (void) casts do not compile cleanly:\n${clean_out}${clean_err}")
endif()

if(failures)
  list(JOIN failures "\n" report)
  message(FATAL_ERROR "${command}\n${report}\n${out}${err}")
endif()
