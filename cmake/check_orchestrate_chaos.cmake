# Chaos-recovery acceptance check for the sweep orchestrator.
#
# Runs BENCH once as a single process (the canonical CSV), then under
# ORCHESTRATOR with 3 shards and seeded chaos kills (workers SIGKILL
# themselves mid-CSV-write; the supervisor relaunches them and they resume
# from their repaired shard files), and requires the merged CSV to be
# byte-identical to the single-process one. Also re-merges the shard files
# through MERGER --expect as a tool-level cross-check.
#
# Inputs: -DBENCH=... -DORCHESTRATOR=... -DMERGER=... -DOUTDIR=...
# Optional: -DBENCH_ARGS=... (a ;-list passed to every bench run, e.g.
# "--points;pp=1" to keep the grid small).

file(REMOVE_RECURSE ${OUTDIR})
file(MAKE_DIRECTORY ${OUTDIR})

execute_process(COMMAND ${BENCH} ${BENCH_ARGS} --csv ${OUTDIR}/single.csv
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "single-process bench run failed (exit ${rc})")
endif()

execute_process(COMMAND ${ORCHESTRATOR}
                        --shard-count 3
                        --chaos kill:rate=0.3 --chaos-seed 7
                        --backoff 0.05 --backoff-max 0.5
                        --poll-interval 0.05
                        --out ${OUTDIR}/merged.csv
                        --workdir ${OUTDIR}/shards
                        -- ${BENCH} ${BENCH_ARGS}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sweep_orchestrate failed under chaos (exit ${rc})")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${OUTDIR}/single.csv ${OUTDIR}/merged.csv
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "merged CSV differs from the single-process run under chaos")
endif()

execute_process(COMMAND ${MERGER} --expect 3 ${OUTDIR}/remerged.csv
                        ${OUTDIR}/shards/shard-0.csv
                        ${OUTDIR}/shards/shard-1.csv
                        ${OUTDIR}/shards/shard-2.csv
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sweep_merge --expect re-merge failed (exit ${rc})")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${OUTDIR}/single.csv ${OUTDIR}/remerged.csv
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "re-merged CSV differs from the single-process run")
endif()

message(STATUS "orchestrated chaos run is byte-identical to single-process")
