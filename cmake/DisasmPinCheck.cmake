# Disassembly identity pin: `smdis --no-libc SOURCE` must print EXPECTED
# byte for byte (the text lands in snapshot detection events and forensic
# dumps). Usage: cmake -DSMDIS=<path> -DSOURCE=<.s> -DEXPECTED=<file>
#                      -DOUT=<file> -P DisasmPinCheck.cmake
execute_process(COMMAND "${SMDIS}" --no-libc "${SOURCE}"
                OUTPUT_FILE "${OUT}" RESULT_VARIABLE rc)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${OUT}" "${EXPECTED}"
                RESULT_VARIABLE differs)
if(NOT rc EQUAL 0 OR NOT differs EQUAL 0)
  message(FATAL_ERROR "DisasmPinCheck: smdis exited ${rc}; diff ${OUT} ${EXPECTED}")
endif()
