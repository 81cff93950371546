# Golden-figure check: run one figure/table bench binary in a fresh
# directory and byte-compare the CSV it writes with the committed copy.
#
#   cmake -DBIN=<bench binary> -DREF=<committed .csv> -DWORK=<scratch dir>
#         -P golden_figure.cmake
#
# The binary writes <name>.csv (the committed file's name) into its
# working directory. On a mismatch the first differing line is printed;
# regenerate the committed CSV from the binary only when a change is
# meant to move the figure.
foreach(var BIN REF WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_figure.cmake: ${var} not set")
  endif()
endforeach()

get_filename_component(csv "${REF}" NAME)
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
execute_process(COMMAND "${BIN}" WORKING_DIRECTORY "${WORK}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}:\n${err}")
endif()
if(NOT EXISTS "${WORK}/${csv}")
  message(FATAL_ERROR "${BIN} wrote no ${csv}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${WORK}/${csv}" "${REF}" RESULT_VARIABLE differs)
if(differs)
  file(STRINGS "${WORK}/${csv}" got)
  file(STRINGS "${REF}" want)
  list(LENGTH got n_got)
  list(LENGTH want n_want)
  set(line 0)
  while(line LESS n_got AND line LESS n_want)
    list(GET got ${line} g)
    list(GET want ${line} w)
    if(NOT g STREQUAL w)
      break()
    endif()
    math(EXPR line "${line} + 1")
  endwhile()
  math(EXPR lineno "${line} + 1")
  set(g "<end of file>")
  set(w "<end of file>")
  if(line LESS n_got)
    list(GET got ${line} g)
  endif()
  if(line LESS n_want)
    list(GET want ${line} w)
  endif()
  message(FATAL_ERROR "${csv} differs from the committed copy at line "
          "${lineno}:\n  written:   ${g}\n  committed: ${w}")
endif()
