# The behaviour contract: the harnesses' stdout goldens
# (bench/baselines/stdout/) and sweep records (bench/baselines/*.json),
# one row per harness command line. Each row is the ctest
# golden.<row>, labelled golden, which runs the harness in
# <build>/bench/golden/<row>/ through tests/expect_exit.cmake, requires
# exit status 0 (headline exits 1 on a flipped claim, litmus_explore 3
# on an exhausted budget) and then runs the row's checks:
#
#   STDOUT <golden>            stdout cmp baselines/stdout/<golden>
#   SAME_AS <row>              every output file equals <row>'s
#   BENCH <baseline> <record>  tools/compare_bench.py, <baseline> in
#                              baselines/, <record> in the row's dir
#   VALIDATE <tool> <arg>...   tools/validate_<tool>.py over the outputs
#   EVERY_CELL <record> <key>  every cell of the record has <key>
#   REPLAY <record>            every cell's line, re-run alone through
#                              run_benchmark, writes the same cell
#                              (host timings aside); no line repeats
#
# SLOW rows run only under `ctest -C slow`. Run one harness's rows with
# `ctest -L golden -R <harness>`. Re-baseline deliberately: regenerate
# the golden from its row's command line.

set(golden_dir ${CMAKE_CURRENT_BINARY_DIR}/golden)

# golden(row target [args...] [SLOW] [checks...])
function(golden row target)
    set(args "")
    set(checks "")
    set(kind "")
    set(extra "")
    set(fixture "")
    foreach(token IN LISTS ARGN)
        if(token STREQUAL "SLOW")
            set(extra CONFIGURATIONS slow)
            continue()
        elseif(token MATCHES
               "^(STDOUT|SAME_AS|BENCH|VALIDATE|EVERY_CELL|REPLAY)$")
            set(kind ${token})
            set(baseline TRUE)
        elseif(NOT kind)
            list(APPEND args ${token})
            continue()
        elseif(kind STREQUAL "STDOUT")
            set(token ${CMAKE_CURRENT_SOURCE_DIR}/baselines/stdout/${token})
        elseif(kind STREQUAL "BENCH" AND baseline)
            set(token ${CMAKE_CURRENT_SOURCE_DIR}/baselines/${token})
            set(baseline FALSE)
        elseif(kind STREQUAL "BENCH")
            set(baseline TRUE)
        elseif(kind STREQUAL "SAME_AS")
            set_property(TEST golden.${token} APPEND PROPERTY
                         FIXTURES_SETUP golden.${token})
            set(fixture golden.${token})
            set(token ${golden_dir}/${token})
        endif()
        list(APPEND checks ${token})
    endforeach()
    add_test(NAME golden.${row} ${extra}
             COMMAND ${CMAKE_COMMAND} -DOUT_DIR=${golden_dir}/${row}
                     "-DCHECKS=${checks}"
                     -DPYTHON=${Python3_EXECUTABLE}
                     -DRUN_BENCHMARK=$<TARGET_FILE:run_benchmark>
                     -P ${PROJECT_SOURCE_DIR}/tests/expect_exit.cmake
                     -- $<TARGET_FILE:${target}> ${args})
    set_tests_properties(golden.${row} PROPERTIES LABELS golden)
    if(fixture)
        set_tests_properties(golden.${row} PROPERTIES
                             FIXTURES_REQUIRED ${fixture})
    endif()
endfunction()

# replay_checks(var record...): for each record, require a line on
# every cell and replay each line alone.
function(replay_checks var)
    set(checks "")
    foreach(record IN LISTS ARGN)
        list(APPEND checks EVERY_CELL ${record} cell REPLAY ${record})
    endforeach()
    set(${var} ${checks} PARENT_SCOPE)
endfunction()

# The figures. Overflow drains, release drains and HRF local atomics
# all run through fig2/3/4 and the store-buffer ablation; the
# granularity ablation's hit% columns pin the load path's accounting;
# headline pins the paper-claim rows. A --jobs=2 or traced run must
# print the serial run's tables bitwise. Every cell of every record
# re-runs alone from its line (REPLAY). headline's cells are the Fig.
# 2-4 rows' cells, so its replay is in its slow traced row.
replay_checks(replay bench.json)
foreach(harness fig2_apps fig3_global_sync fig4_local_sync
        ablation_store_buffer ablation_granularity ablation_noc_latency)
    golden(${harness} ${harness} --scale=20 --json=bench.json
        STDOUT ${harness}.scale20.txt ${replay})
endforeach()
golden(headline headline --scale=20 STDOUT headline.scale20.txt)
golden(fig3_global_sync.jobs2 fig3_global_sync --scale=20 --jobs=2
    --json=bench.json
    STDOUT fig3_global_sync.scale20.txt)
# The traced rows write ~0.7 and ~2 GB of Chrome JSON, which takes
# minutes to validate, so they are slow rows.
golden(fig3_global_sync.traced fig3_global_sync --scale=20 --jobs=2
    --trace=trace.json --json=bench.json SLOW
    STDOUT fig3_global_sync.scale20.txt
    VALIDATE trace trace.*.json)
golden(headline.traced headline --scale=20 --trace=trace.json
    --json=bench.json SLOW
    STDOUT headline.scale20.txt
    VALIDATE trace trace.*.json
    EVERY_CELL bench.json latency
    ${replay})

# Every workload registry row: Table 4's names and inputs, and the
# twelve graph rows built at paper scale.
golden(tables tables STDOUT tables.txt)
golden(graph_sweep.scale100 graph_sweep --scale=100
    STDOUT graph_sweep.scale100.txt)

# The sweeps' simulated cycles, energy and traffic, exactly. The graph
# sweep's own win check exits 1 unless DD+PR beats DD and GD on a pull
# cell. The serial rows replay every cell, so the mesh sides, device
# counts and tracing of the machines replay too.
foreach(jobs 1 2)
    if(jobs EQUAL 1)
        set(suffix "")
        replay_checks(graph_replay bench.json)
        replay_checks(scale_replay bench.4x4.json bench.6x6.json
                      bench.8x8.json bench.12x12.json)
        replay_checks(device_replay bench.2dev.json bench.4dev.json)
    else()
        set(suffix .jobs2)
        set(graph_replay "")
        set(scale_replay "")
        set(device_replay "")
    endif()
    golden(graph_sweep${suffix} graph_sweep --scale=10 --jobs=${jobs}
        --json=bench.json
        STDOUT graph_sweep.scale10.txt
        BENCH BENCH_PR10.graph.json bench.json
        ${graph_replay})
    # 4x4 -> 6x6 -> 8x8 -> 12x12 meshes, and 2- and 4-device machines.
    golden(scale_sweep${suffix} scale_sweep --scale=10 --jobs=${jobs}
        --json=bench.json SLOW
        STDOUT scale_sweep.scale10.txt
        BENCH BENCH_PR5.4x4.json bench.4x4.json
              BENCH_PR5.6x6.json bench.6x6.json
              BENCH_PR5.8x8.json bench.8x8.json
              BENCH_PR7.12x12.json bench.12x12.json
        ${scale_replay})
    golden(multi_device_sweep${suffix} multi_device_sweep --scale=10
        --jobs=${jobs} --json=bench.json SLOW
        STDOUT multi_device_sweep.scale10.txt
        BENCH BENCH_PR8.2dev.json bench.2dev.json
              BENCH_PR8.4dev.json bench.4dev.json
        ${device_replay})
endforeach()

# The happens-before detector on every sync idiom and column: the same
# figures and race reports under --jobs=2, and clean reports on a
# two-device machine whose device-scope cells are truly middle-scoped
# and replay alone (a slow row: race-checked cells are the costliest
# to replay).
golden(race_sweep race_sweep --scale=20 --race-json=r.json
    STDOUT race_sweep.scale20.txt
    VALIDATE races --require-clean r.*.json)
golden(race_sweep.jobs2 race_sweep --scale=20 --jobs=2 --race-json=r.json
    SAME_AS race_sweep)
golden(race_sweep.2dev race_sweep --scale=20 --devices=2 --sync-engine
    --race-json=r.json --json=bench.json SLOW
    VALIDATE races --require-clean r.*.json
    ${replay})

# The summary line counts the injected faults, so it pins the
# reordered, duplicated and stalled delivery paths. Each fault seed's
# run, and each golden run, replays alone from its line.
golden(chaos_sweep chaos_sweep --seeds=3 --scale=20
    STDOUT chaos_sweep.seeds3.scale20.txt)
golden(chaos_sweep.replay chaos_sweep --seeds=1 --scale=1
    --json=bench.json ${replay})

# Every litmus (program, config) cell explores to an empty frontier,
# the same under --jobs=2. DPOR prunes only commuting branches: full
# enumeration agrees (IRIW's unpruned space is too large; it is pinned
# at a smaller bound in tests/test_explore.cc). The cross-check holds
# the axiomatic outcome sets and race verdicts against the explorer's.
golden(litmus_explore litmus_explore --report=report.json
    VALIDATE explore --require-pass report.json)
golden(litmus_explore.jobs2 litmus_explore --jobs=2 --report=report.json
    SAME_AS litmus_explore)
foreach(program mp mp_dev sb lb misscoped)
    golden(litmus_explore.no_dpor.${program} litmus_explore --no-dpor
        --program=${program})
endforeach()
golden(litmus_explore.cross_check litmus_explore --mode=cross-check
    --axiom-json=axiom.json --report=report.json
    STDOUT litmus_explore.cross-check.txt
    VALIDATE axiom --require-clean axiom.json
    VALIDATE explore --require-pass report.json)
