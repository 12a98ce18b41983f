# Strict bench flags: running ${BENCH} with ${ARGS} (space-separated)
# must exit 2 and print ${EXPECT} and the usage text on stderr
# instead of running a default horizon.  With ${CSV} set, the run
# with `--csv ${CSV}` appended must instead exit 0 and write ${CSV},
# headed by ${HEADER}.
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(DEFINED CSV)
    list(APPEND args --csv ${CSV})
    file(REMOVE ${CSV})
endif()
execute_process(
    COMMAND ${BENCH} ${args}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(DEFINED CSV)
    if(NOT rc EQUAL 0 OR NOT EXISTS ${CSV})
        message(FATAL_ERROR "'${args}': exit status ${rc}, no ${CSV}\n${err}")
    endif()
    file(STRINGS ${CSV} header LIMIT_COUNT 1)
    if(NOT header STREQUAL "${HEADER}")
        message(FATAL_ERROR "${CSV} starts '${header}', not '${HEADER}'")
    endif()
    return()
endif()
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${ARGS}': exit status ${rc}, expected 2\n${out}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "'${ARGS}': stderr lacks '${EXPECT}':\n${err}")
endif()
string(FIND "${err}" "Options:" at)
if(at EQUAL -1)
    message(FATAL_ERROR "'${ARGS}': stderr lacks the usage text:\n${err}")
endif()
