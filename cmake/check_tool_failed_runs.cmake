# Failed-run smoke test: a kagen_tool run that exits non-zero must remove
# every output file it created or truncated. A file left behind with a
# 0-edge header reads as a valid empty graph, and a complete -o next to a
# failed -dedup-out reads as a finished run. Run as:
#   cmake -DTOOL=<path-to-binary> -DWORKDIR=<scratch dir> -P check_tool_failed_runs.cmake
# Each case must exit 1 and leave no -o file, including one that existed
# before the run (the run truncated it).
if(NOT DEFINED TOOL OR NOT DEFINED WORKDIR)
    message(FATAL_ERROR "pass -DTOOL=<path to example_kagen_tool> -DWORKDIR=<dir>")
endif()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
set(OUT "${WORKDIR}/out.bin")
set(MISSING "${WORKDIR}/no_such_dir")

function(expect_failed_run what)
    file(WRITE "${OUT}" "stale output of an earlier run")
    execute_process(COMMAND ${TOOL} ${ARGN}
                    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
    if(NOT rc EQUAL 1)
        message(FATAL_ERROR "${what}: exited ${rc}, expected 1\nstdout: ${out}\nstderr: ${err}")
    endif()
    if(EXISTS "${OUT}")
        file(SIZE "${OUT}" size)
        message(FATAL_ERROR "${what}: the failed run left -o behind (${size} bytes)")
    endif()
endfunction()

# Spill file cannot be opened. Only an unsized model parks chunks (G(n,m)
# writes them in place and opens no spill file), and only a run with more
# than one worker opens the spill file at all.
cmake_host_system_information(RESULT cores QUERY NUMBER_OF_LOGICAL_CORES)
if(cores GREATER 1)
    expect_failed_run("unopenable -spill-path"
        rgg2d -n 20000 -s 1 -sink file -pes 4 -chunks 64
        -max-buffered-bytes 64 -spill-path ${MISSING}/s.bin -o ${OUT})
else()
    message(STATUS "one core: the spill case never opens its spill file, skipped")
endif()

# -dedup-out cannot be opened, after -o was written in full: in-process,
# and merged by the coordinator of two forked ranks.
expect_failed_run("unopenable -dedup-out"
    gnm_directed -n 1024 -m 8192 -s 1 -sink file -pes 4 -chunks 8
    -o ${OUT} -dedup-out ${MISSING}/d.bin)
expect_failed_run("unopenable -dedup-out with -ranks 2"
    gnm_directed -n 1024 -m 8192 -s 1 -sink file -pes 4 -chunks 8
    -o ${OUT} -dedup-out ${MISSING}/d.bin -ranks 2)

file(REMOVE_RECURSE "${WORKDIR}")
message(STATUS "every failed run removed its output")
