# Flags that became `--set` keys: `polcactl run --FLAG` must fail
# naming its replacement, and feeding that replacement to `config
# dump` may fail on the placeholder value (`N`, `F`, ...) but never on
# the key, so a renamed scenario key cannot leave a stale hint.  The
# list is `kReplacedFlags` in polcactl.cc.
foreach(flag added branch days dropout failures jobs metrics-interval
        policy power-scale scenario seed servers watchdog)
    execute_process(
        COMMAND ${POLCACTL} run --${flag} 1
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE out)
    if(NOT out MATCHES
       "fatal: unknown flag '--${flag}' \\(use --set ([^)]+)\\)")
        message(FATAL_ERROR "--${flag} names no --set key: ${out}")
    endif()
    set(assignment "${CMAKE_MATCH_1}")
    execute_process(
        COMMAND ${POLCACTL} config dump --set ${assignment}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE dump
        ERROR_VARIABLE dump)
    if(dump MATCHES "unknown key|unknown top-level")
        message(FATAL_ERROR
            "--${flag}: --set ${assignment} names no scenario key: "
            "${dump}")
    endif()
endforeach()
