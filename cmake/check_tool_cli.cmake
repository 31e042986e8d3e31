# CLI-robustness smoke test: every malformed invocation must exit 2 with a
# diagnostic on stderr — never half-run with a silently-defaulted value.
# Companion of check_tool_help.cmake; run as:
#   cmake -DTOOL=<path-to-binary> -P check_tool_cli.cmake
# Each case pins one of the front-end hardening guarantees:
#   * non-numeric / scientific-notation / negative values are rejected
#     ("-n banana" used to run with n=0, "-n 1e6" with n=1)
#   * booleans accept only 0|1|true|false ("-pin-threads yes" used to
#     silently DISABLE pinning)
#   * a trailing flag with no value is an error (the old loop dropped it)
#   * fractional ba attachment degrees are rejected, not truncated
#   * contradictory mode combinations are rejected up front, including run
#     settings given to a TCP coordinator (they belong on its workers)
if(NOT DEFINED TOOL)
    message(FATAL_ERROR "pass -DTOOL=<path to example_kagen_tool>")
endif()

# Each case is "<expected stderr substring>|<space-separated argv>"; the
# LAST '|' splits them, so patterns may contain '|' themselves (the boolean
# diagnostic does). No argument may contain spaces, ';', or '|'.
set(CASES
    "invalid value 'banana'|gnm_undirected -n banana"
    "invalid value '1e6'|gnm_undirected -n 1e6"
    "invalid value '-5'|gnm_undirected -n -5"
    "invalid value '12abc'|gnm_undirected -m 12abc"
    "invalid value 'banana'|gnm_undirected -arena-slab-bytes banana"
    "invalid value '-4096'|gnm_undirected -arena-slab-bytes -4096"
    "missing its value|gnm_undirected -arena-slab-bytes"
    "expected a finite number|gnp_undirected -p high"
    "expected a finite number|rgg2d -r 0.1oops"
    "attachment degree|ba -d 2.5"
    "expected 0|1|true|false|gnm_undirected -pin-threads yes"
    "expected 0|1|true|false|gnm_undirected -keep-rank-files maybe"
    "missing its value|gnm_undirected -sink file -o"
    "missing its value|gnm_undirected -n"
    "unknown flag '-frobnicate'|gnm_undirected -frobnicate 1"
    "unknown model 'nope'|nope"
    "unknown sampler 'v3'|gnm_undirected -sampler v3"
    "unknown semantics 'sometimes'|gnm_undirected -edge-semantics sometimes"
    "milliseconds|gnm_undirected -net-timeout 99999999999999"
    "-listen requires -expect-workers|gnm_undirected -sink count -listen :0"
    "mutually exclusive|gnm_undirected -sink count -listen :0 -expect-workers 1 -connect h:1"
    "requires -sink|gnm_undirected -listen :0 -expect-workers 2"
    "-manifest requires|gnm_undirected -sink file -manifest /tmp/m"
    "requires host:port|-worker"
    "unknown worker flag|-worker :0 -frobnicate 1"
    "invalid value 'lots'|-worker :0 -max-buffered-bytes lots"
    "expected 0|1|true|false|-worker :0 -pin-threads yes"
    "set it on the workers|gnm_undirected -sink file -o /tmp/x -listen :0 -expect-workers 1 -spill-path s.bin"
    "-pin-threads is a per-node run setting|gnm_undirected -sink count -connect h:1 -pin-threads 1"
    "-sort-memory is a per-node run setting|gnm_undirected -sink file -o /tmp/x -dedup-out /tmp/y -listen :0 -expect-workers 1 -sort-memory 65536"
    "invalid value 'lots'|-worker :0 -sort-memory lots"
)

set(NUM 0)
foreach(case IN LISTS CASES)
    string(FIND "${case}" "|" SPLIT REVERSE)
    string(SUBSTRING "${case}" 0 ${SPLIT} PATTERN)
    math(EXPR ARGS_AT "${SPLIT} + 1")
    string(SUBSTRING "${case}" ${ARGS_AT} -1 ARGS_STR)
    string(REPLACE " " ";" ARGS "${ARGS_STR}")

    execute_process(COMMAND ${TOOL} ${ARGS}
                    OUTPUT_VARIABLE OUT
                    ERROR_VARIABLE ERR
                    RESULT_VARIABLE RC)
    if(NOT RC EQUAL 2)
        message(FATAL_ERROR
            "'${TOOL} ${ARGS_STR}' exited ${RC}, expected 2\nstderr: ${ERR}")
    endif()
    string(FIND "${ERR}" "${PATTERN}" AT)
    if(AT EQUAL -1)
        message(FATAL_ERROR
            "'${TOOL} ${ARGS_STR}' stderr lacks '${PATTERN}'\nstderr: ${ERR}")
    endif()
    math(EXPR NUM "${NUM} + 1")
endforeach()

# An empty value is rejected too (needs its own block: empty list elements
# don't survive the table above).
execute_process(COMMAND ${TOOL} gnm_undirected -n ""
                OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC)
if(NOT RC EQUAL 2)
    message(FATAL_ERROR "empty -n value exited ${RC}, expected 2: ${ERR}")
endif()
math(EXPR NUM "${NUM} + 1")

# Spot-check the flip side: values the hardening must NOT reject.
execute_process(COMMAND ${TOOL} gnp_undirected -n 64 -p 0 -sink count
                OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
    message(FATAL_ERROR "explicit -p 0 must be accepted, got ${RC}: ${ERR}")
endif()
string(FIND "${OUT}" "edges[as_generated]=0" AT)
if(AT EQUAL -1)
    message(FATAL_ERROR "-p 0 must yield an empty gnp graph, got: ${OUT}")
endif()
execute_process(COMMAND ${TOOL} ba -n 64 -d 3 -sink count
                OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
    message(FATAL_ERROR "integral -d 3 for ba must be accepted: ${ERR}")
endif()

message(STATUS "tool rejects all ${NUM} malformed invocations with exit 2")
