# Crash-recovery fuzz campaign for CI, invoked by the `recovery_smoke`
# ctest target:
#
#   cmake -DFUZZ_BIN=<build>/testing/ask_fuzz -DOUT_DIR=<scratch> -P recovery_smoke.cmake
#
# Runs the crash-heavy smoke campaign twice — every scenario crashes
# host daemons or the controller mid-task, with the register-access
# cross-check armed (ASK_VERIFY_ACCESSES=1) — once on 1 simulator thread
# and once on 4 (ASK_SIM_THREADS), and requires (a) zero failures and
# (b) byte-identical ask-fuzz/v1 reports. Recovery is thus proven both
# *exact* (no oracle diffs, no probe failures) and *deterministic* (crash
# timing, WAL replay, and re-fencing reproduce bit-for-bit, whatever the
# thread count).

if(NOT DEFINED FUZZ_BIN OR NOT DEFINED OUT_DIR)
    message(FATAL_ERROR "usage: cmake -DFUZZ_BIN=... -DOUT_DIR=... -P recovery_smoke.cmake")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

foreach(run a b)
    if(run STREQUAL "a")
        set(threads 1)
    else()
        set(threads 4)
    endif()
    message(STATUS "recovery_smoke: crash-heavy campaign ${run} (${threads} thread(s))")
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -E env ASK_VERIFY_ACCESSES=1
            ASK_SIM_THREADS=${threads}
            "${FUZZ_BIN}" --smoke --crash-heavy
            --json "${OUT_DIR}/report_${run}.json"
        WORKING_DIRECTORY "${OUT_DIR}"
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "recovery_smoke: campaign ${run} exited ${rc}\n${out}\n${err}")
    endif()
endforeach()

file(READ "${OUT_DIR}/report_a.json" report_a)
file(READ "${OUT_DIR}/report_b.json" report_b)
if(NOT report_a STREQUAL report_b)
    message(FATAL_ERROR "recovery_smoke: reports differ between the 1- and 4-thread campaigns")
endif()

message(STATUS "recovery_smoke: zero failures, byte-identical reports")
