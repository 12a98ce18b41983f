# Strict bench flags: running ${BENCH} with ${ARGS} (space-separated)
# must exit 2 and print ${EXPECT} and the usage text on stderr
# instead of running a default horizon.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
    COMMAND ${BENCH} ${args}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
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
