# Run with cmake -P, with SOURCES (the library's sources, relative to
# src/) and PROFILE_DIR, in one of two modes:
#
#   -DTRAINER=FILE  run the instrumented trainer on an empty
#                   PROFILE_DIR; fail when it fails
#   -DSTAMP=FILE    the pgo.profile ctest: the training stamp exists
#
# Both then fail unless every source has its profile, "sim/mesh.cc"
# as PROFILE_DIR/sim.mesh.cc.gcda.

if(DEFINED TRAINER)
    # libgcov adds a run's counts to an existing profile.
    file(GLOB old "${PROFILE_DIR}/*.gcda")
    if(old)
        file(REMOVE ${old})
    endif()
    file(MAKE_DIRECTORY "${PROFILE_DIR}")
    # PERSIM_FAULT would fail the cells it targets (exp/fault.hh).
    execute_process(COMMAND ${CMAKE_COMMAND} -E env --unset=PERSIM_FAULT
                            "${TRAINER}"
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "profile training failed (${rc})")
    endif()
elseif(NOT EXISTS "${STAMP}")
    message(FATAL_ERROR "no training stamp ${STAMP}")
endif()

foreach(src IN LISTS SOURCES)
    string(REPLACE "/" "." unit "${src}")
    if(NOT EXISTS "${PROFILE_DIR}/${unit}.gcda")
        message(FATAL_ERROR "no profile for ${src} in ${PROFILE_DIR}")
    endif()
endforeach()
