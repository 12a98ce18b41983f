# CLI observability smoke test: run a faulted experiment with trace
# and metrics export enabled, then check the artifacts. The blackout
# scenario guarantees control-plane traffic (the watchdog fail-safe
# escalates every rule) but legitimately violates SLOs at this tiny
# scale, so the run's exit code may be 0 (SLOs met) or 1 (violated);
# anything else is a crash.
execute_process(
    COMMAND ${POLCACTL} run --set row.added_server_fraction=0.2
            --set experiment.duration=0.02d --set row.base_servers=10
            --set faults.scenario=blackout
            --trace ${WORK_DIR}/run_trace.json
            --metrics ${WORK_DIR}/run_metrics.txt
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 AND NOT rc EQUAL 1)
    message(FATAL_ERROR "polcactl run crashed: ${rc}")
endif()

if(NOT EXISTS ${WORK_DIR}/run_trace.json)
    message(FATAL_ERROR "trace export missing")
endif()
file(READ ${WORK_DIR}/run_trace.json trace_json)
if(NOT trace_json MATCHES "\"traceEvents\"")
    message(FATAL_ERROR "trace export is not Chrome trace_event JSON")
endif()
if(NOT trace_json MATCHES "cap_issue")
    message(FATAL_ERROR "trace export has no cap_issue spans")
endif()

if(NOT EXISTS ${WORK_DIR}/run_metrics.txt)
    message(FATAL_ERROR "metrics export missing")
endif()
file(READ ${WORK_DIR}/run_metrics.txt metrics_text)
if(NOT metrics_text MATCHES "manager.cap_commands")
    message(FATAL_ERROR "metrics export missing manager counters")
endif()
