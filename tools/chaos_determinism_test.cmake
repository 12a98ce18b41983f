# Chaos determinism test: the same campaign run twice must produce
# byte-identical console output and summary CSVs, also when a third
# run spreads the seeds over four workers, and a violating seed must
# be reproducible from a single-run campaign.
execute_process(
    COMMAND ${POLCACTL} chaos --runs 5 --seed 42
            --scenario-file ${SCENARIO}
            --out-dir ${WORK_DIR}/chaos-a
    RESULT_VARIABLE rc1
    OUTPUT_VARIABLE out1)
if(NOT rc1 EQUAL 0)
    message(FATAL_ERROR "chaos campaign A failed: ${rc1}")
endif()

execute_process(
    COMMAND ${POLCACTL} chaos --runs 5 --seed 42
            --scenario-file ${SCENARIO}
            --out-dir ${WORK_DIR}/chaos-b
    RESULT_VARIABLE rc2
    OUTPUT_VARIABLE out2)
if(NOT rc2 EQUAL 0)
    message(FATAL_ERROR "chaos campaign B failed: ${rc2}")
endif()

if(NOT out1 STREQUAL out2)
    message(FATAL_ERROR "chaos campaigns are not deterministic: "
                        "identical seeds produced different output")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/chaos-a/chaos_summary.csv
            ${WORK_DIR}/chaos-b/chaos_summary.csv
    RESULT_VARIABLE csvdiff)
if(NOT csvdiff EQUAL 0)
    message(FATAL_ERROR "chaos summary CSVs differ between reruns")
endif()

execute_process(
    COMMAND ${POLCACTL} chaos --runs 5 --seed 42
            --scenario-file ${SCENARIO} --set sweep.jobs=4
            --out-dir ${WORK_DIR}/chaos-c
    RESULT_VARIABLE rc4
    OUTPUT_VARIABLE out4)
if(NOT rc4 EQUAL 0)
    message(FATAL_ERROR "chaos campaign C (4 workers) failed: ${rc4}")
endif()
if(NOT out1 STREQUAL out4)
    message(FATAL_ERROR "a 4-worker chaos campaign printed different "
                        "output than the 1-worker one")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/chaos-a/chaos_summary.csv
            ${WORK_DIR}/chaos-c/chaos_summary.csv
    RESULT_VARIABLE csvdiff4)
if(NOT csvdiff4 EQUAL 0)
    message(FATAL_ERROR "chaos summary CSVs differ between 1 and 4 "
                        "workers")
endif()

# Run 3 of the campaign used seed 45; a one-run campaign based at 45
# must reproduce its row exactly (modulo the run index column).
execute_process(
    COMMAND ${POLCACTL} chaos --runs 1 --seed 45
            --scenario-file ${SCENARIO}
            --out-dir ${WORK_DIR}/chaos-repro
    RESULT_VARIABLE rc3)
if(NOT rc3 EQUAL 0)
    message(FATAL_ERROR "chaos repro campaign failed: ${rc3}")
endif()

file(STRINGS ${WORK_DIR}/chaos-a/chaos_summary.csv full_rows)
file(STRINGS ${WORK_DIR}/chaos-repro/chaos_summary.csv repro_rows)
list(GET full_rows 4 full_row)
list(GET repro_rows 1 repro_row)
string(REGEX REPLACE "^3," "" full_row "${full_row}")
string(REGEX REPLACE "^0," "" repro_row "${repro_row}")
if(NOT full_row STREQUAL repro_row)
    message(FATAL_ERROR "seed 45 did not reproduce: campaign row "
                        "'${full_row}' vs repro row '${repro_row}'")
endif()
