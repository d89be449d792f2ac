# Golden-output driver (the cli_* ctests).
#
#   cmake -DLAB=<banscore-lab> -DRC=<expected exit code> -DOUT=<actual-output file>
#         [-DGOLDEN=<expected stdout file>] -P golden.cmake -- <subcommand> [args...]
#
# Runs LAB with the arguments after "--", requires exit code RC, and compares
# stdout byte for byte with GOLDEN. Without GOLDEN, stdout must be empty (the
# bad-flag cases, whose only output is a stderr message). The value of the
# bs_sim_wall_seconds gauge, the one wall-clock reading in any compared
# output, is masked before the compare. The actual (masked) stdout is always
# written to OUT, so a deliberate output change is regenerated by copying
# OUT over GOLDEN.
set(args)
set(take OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(take)
    list(APPEND args "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(take ON)
  endif()
endforeach()

list(JOIN args " " cmdline)
execute_process(COMMAND "${LAB}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(REGEX REPLACE "(bs_sim_wall_seconds\"?:? ?)[-+0-9.eE]+" "\\1<wall>"
       out "${out}")
file(WRITE "${OUT}" "${out}")

if(NOT rc STREQUAL "${RC}")
  message(FATAL_ERROR "banscore-lab ${cmdline}: exit ${rc}, want ${RC}\n"
                      "stderr:\n${err}")
endif()
set(want "")
set(source "the empty output")
if(DEFINED GOLDEN)
  file(READ "${GOLDEN}" want)
  set(source "${GOLDEN}")
endif()
if(NOT out STREQUAL want)
  message(FATAL_ERROR "banscore-lab ${cmdline}: stdout differs from ${source}; "
                      "actual output in ${OUT}")
endif()
