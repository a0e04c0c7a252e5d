# smsnap command-line contract on one reproducible fuzz case:
#   - a run saved mid-way and resumed ends exactly as the direct run does
#     (same result, counters and per-process exit status);
#   - dump walks a snapshot and exits 0;
#   - diff exits 0 with no output on identical snapshots, 1 on different
#     ones, and 2 on a truncated one.
# Usage: cmake -DSMSNAP=<path> -DWORK_DIR=<dir> -P SmsnapCliCheck.cmake
file(MAKE_DIRECTORY "${WORK_DIR}")
set(case --seed=3 --index=0)
set(direct_snap "${WORK_DIR}/direct.snap")
set(mid_snap "${WORK_DIR}/mid.snap")
set(cut_snap "${WORK_DIR}/truncated.snap")

function(smsnap expect_rc out_var)
  execute_process(COMMAND "${SMSNAP}" ${ARGN}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL expect_rc)
    message(FATAL_ERROR "SmsnapCliCheck: smsnap ${ARGN} exited ${rc}, "
                        "expected ${expect_rc}\n${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# The first line names the snapshot or the resume point; the report follows.
function(report_of text out_var)
  string(REGEX REPLACE "^[^\n]*\n" "" body "${text}")
  set(${out_var} "${body}" PARENT_SCOPE)
endfunction()

smsnap(0 direct save ${case} -o "${direct_snap}")
smsnap(0 saved save ${case} --at=100 -o "${mid_snap}")
if(NOT saved MATCHES "mid-run")
  message(FATAL_ERROR "SmsnapCliCheck: --at=100 did not stop mid-run:\n${saved}")
endif()
smsnap(0 resumed resume "${mid_snap}" ${case})
report_of("${direct}" want)
report_of("${resumed}" got)
if(NOT got STREQUAL want)
  message(FATAL_ERROR "SmsnapCliCheck: resumed run differs from the direct "
                      "run\n--- direct\n${want}--- resumed\n${got}")
endif()

smsnap(0 dumped dump "${mid_snap}")
if(NOT dumped MATCHES "machine\\.phys\\.fresh = ")
  message(FATAL_ERROR "SmsnapCliCheck: dump lacks machine.phys.fresh")
endif()

smsnap(0 same diff "${mid_snap}" "${mid_snap}")
if(NOT same STREQUAL "")
  message(FATAL_ERROR "SmsnapCliCheck: diff A A printed:\n${same}")
endif()
smsnap(1 differ diff "${mid_snap}" "${direct_snap}")

# CMake strings cannot hold the NUL bytes of a snapshot, so cut with head.
file(SIZE "${mid_snap}" size)
math(EXPR half "${size} / 2")
execute_process(COMMAND head -c ${half} "${mid_snap}"
                OUTPUT_FILE "${cut_snap}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "SmsnapCliCheck: could not truncate ${mid_snap}")
endif()
smsnap(2 cut diff "${mid_snap}" "${cut_snap}")
