# Report pipeline smoke test: run the smoke scenario into a run
# directory twice, generate a report from the first, structurally
# check every artifact, and require the two same-seed run directories
# (reports included) to be byte-identical — the determinism contract
# `polcactl report` documents.  A third run on two workers (the
# managed run and its baseline side by side) must write the same
# artifacts; only its manifest.json differs, recording the worker
# count.
#
# Inputs: POLCACTL (binary), WORK_DIR (scratch), SCENARIO (smoke.toml)

set(run_a ${WORK_DIR}/report-smoke-a)
set(run_b ${WORK_DIR}/report-smoke-b)
set(run_c ${WORK_DIR}/report-smoke-c)
file(REMOVE_RECURSE ${run_a} ${run_b} ${run_c})

foreach(dir ${run_a} ${run_b} ${run_c})
    set(workers)
    if(dir STREQUAL run_c)
        set(workers --set sweep.jobs=2)
    endif()
    execute_process(
        COMMAND ${POLCACTL} run --scenario-file ${SCENARIO}
                ${workers} --out-dir ${dir}
        RESULT_VARIABLE rc
        OUTPUT_QUIET)
    if(NOT rc EQUAL 0 AND NOT rc EQUAL 1)
        message(FATAL_ERROR "polcactl run crashed: ${rc}")
    endif()
    execute_process(
        COMMAND ${POLCACTL} report ${dir}
        RESULT_VARIABLE rc
        OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "polcactl report ${dir} failed: ${rc}")
    endif()
endforeach()

# --- structural checks on run A -----------------------------------
foreach(artifact manifest.json resolved.toml result.csv metrics.csv
        stats_interval.csv report.md report.html)
    if(NOT EXISTS ${run_a}/${artifact})
        message(FATAL_ERROR "missing artifact ${artifact}")
    endif()
endforeach()

file(READ ${run_a}/manifest.json manifest)
foreach(key "\"tool\"" "\"config_digest\"" "\"seed\"" "\"artifacts\""
        "\"metrics_interval_s\"")
    if(NOT manifest MATCHES ${key})
        message(FATAL_ERROR "manifest.json missing ${key}")
    endif()
endforeach()

file(READ ${run_a}/report.html html)
if(NOT html MATCHES "<svg ")
    message(FATAL_ERROR "report.html has no inline SVG timeline")
endif()
if(NOT html MATCHES "Percentiles")
    message(FATAL_ERROR "report.html has no percentile section")
endif()
if(NOT html MATCHES "</html>")
    message(FATAL_ERROR "report.html is truncated")
endif()
if(html MATCHES "http://" OR html MATCHES "https://")
    message(FATAL_ERROR "report.html is not self-contained")
endif()

file(READ ${run_a}/report.md md)
if(NOT md MATCHES "smbpbi.apply_latency_s")
    message(FATAL_ERROR "report.md missing cap-issue latency row")
endif()
if(NOT md MATCHES "config ")
    message(FATAL_ERROR "report.md footer missing config digest")
endif()

file(READ ${run_a}/stats_interval.csv interval)
if(NOT interval MATCHES "time_s,")
    message(FATAL_ERROR "stats_interval.csv missing time_s column")
endif()

# --- same-seed byte-compare ---------------------------------------
foreach(artifact manifest.json resolved.toml result.csv metrics.csv
        stats_interval.csv report.md report.html)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                ${run_a}/${artifact} ${run_b}/${artifact}
        RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
        message(FATAL_ERROR
            "same-seed runs differ in ${artifact}")
    endif()
endforeach()

# --- two workers: same artifacts, manifest aside -------------------
file(GLOB artifacts_a RELATIVE ${run_a} ${run_a}/*)
file(GLOB artifacts_c RELATIVE ${run_c} ${run_c}/*)
if(NOT artifacts_a STREQUAL artifacts_c)
    message(FATAL_ERROR "sweep.jobs=2 run wrote '${artifacts_c}', "
                        "jobs=1 wrote '${artifacts_a}'")
endif()
list(REMOVE_ITEM artifacts_a manifest.json)
foreach(artifact ${artifacts_a})
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                ${run_a}/${artifact} ${run_c}/${artifact}
        RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
        message(FATAL_ERROR
            "sweep.jobs=2 run differs from jobs=1 in ${artifact}")
    endif()
endforeach()
file(READ ${run_c}/manifest.json manifest_c)
if(NOT manifest_c MATCHES "\"jobs\": 2,")
    message(FATAL_ERROR "sweep.jobs=2 manifest does not record 2 jobs")
endif()
