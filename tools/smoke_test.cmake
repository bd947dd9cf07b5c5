# Drives the ccgraph CLI end to end: simulate two hours (second one with a
# scan), then graph/segment/report on hour data and policy-check the attack
# hour against the clean baseline (which must produce alerts, exit 3).
function(run_cli expect_rc)
  execute_process(COMMAND ${CLI} ${ARGN}
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expect_rc})
    message(FATAL_ERROR "ccgraph ${ARGN} -> rc=${rc} (want ${expect_rc})\n${out}\n${err}")
  endif()
endfunction()

run_cli(0 simulate --preset tiny --hours 1 --seed 7 --out clean.csv)
run_cli(0 simulate --preset tiny --hours 1 --seed 7 --attack scan --attack-hour 0 --out attacked.csv)
run_cli(0 graph --in clean.csv)
run_cli(0 segment --in clean.csv)
run_cli(0 report --in clean.csv)
run_cli(3 policy --baseline clean.csv --check attacked.csv)
run_cli(0 policy --baseline clean.csv --check clean.csv)
run_cli(2 simulate --preset nonsense)

run_cli(0 graph --in clean.csv --pgm heat.pgm --save graph.ccg)
if(NOT EXISTS ${WORKDIR}/heat.pgm OR NOT EXISTS ${WORKDIR}/graph.ccg)
  message(FATAL_ERROR "graph artifacts not written")
endif()
run_cli(3 diff --before clean.csv --after attacked.csv)
run_cli(0 diff --before clean.csv --after clean.csv)
run_cli(0 policy --baseline clean.csv --check clean.csv --save policy.txt --min-support 1)
if(NOT EXISTS ${WORKDIR}/policy.txt)
  message(FATAL_ERROR "policy file not written")
endif()

run_cli(0 simulate --preset tiny --hours 5 --seed 9 --out long.csv)
run_cli(0 anomaly --in long.csv --train 3 --rank 8)
# --train and --rank below 1 are usage errors, named on stderr.
run_cli(2 anomaly --in long.csv --train -1)
run_cli(2 anomaly --in long.csv --train 0)
run_cli(2 anomaly --in long.csv --rank -1)
run_cli(2 anomaly --in long.csv --rank 0)
run_cli(2 serve --in long.csv --shards 2 --rank 0)
# So are --window below 1 and --collapse outside [0, 1), caught before the
# input is read or serve forks a worker: missing.csv does not exist, so a
# check made after loading would exit 1.
run_cli(2 anomaly --in missing.csv --window 0)
run_cli(2 anomaly --in missing.csv --window -3)
run_cli(2 anomaly --in missing.csv --collapse 1.5)
run_cli(2 graph --in missing.csv --window 0)
run_cli(2 graph --in missing.csv --collapse 1.5)
run_cli(2 segment --in missing.csv --window -3)
run_cli(2 segment --in missing.csv --collapse 1.5)
run_cli(2 store append --in missing.csv --store bad_flags.store --window 0)
run_cli(2 serve --in missing.csv --shards 2 --window 0)
run_cli(2 serve --in missing.csv --shards 2 --collapse 1.5)

# Numeric flags take one complete, finite number, and --threads lies in
# [0, 1024] (0 keeps the default). Anything else is a usage error that
# names the flag, raised before the input is read (or serve forks a
# worker).
function(run_cli_rejects flag)
  execute_process(COMMAND ${CLI} ${ARGN}
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "--${flag} ")
    message(FATAL_ERROR "ccgraph ${ARGN} -> rc=${rc} (want 2, naming --${flag})\n${err}")
  endif()
endfunction()
run_cli_rejects(threads anomaly --in missing.csv --threads abc)
run_cli_rejects(threads anomaly --in missing.csv --threads -2)
run_cli_rejects(threads anomaly --in missing.csv --threads 1025)
run_cli_rejects(window anomaly --in missing.csv --window abc)
run_cli_rejects(rank anomaly --in missing.csv --rank 2x)
run_cli_rejects(collapse anomaly --in missing.csv --collapse 0.5x)
run_cli_rejects(collapse anomaly --in missing.csv --collapse nan)
run_cli_rejects(train anomaly --in missing.csv --train)
run_cli_rejects(watchdog-ms anomaly --in missing.csv --watchdog-ms 1s)
run_cli_rejects(resolution segment --in missing.csv --resolution 2y)
run_cli_rejects(factor diff --before missing.csv --after missing.csv --factor x)
run_cli_rejects(coverage policy --baseline missing.csv --check missing.csv --coverage .5.)
run_cli_rejects(segment-mb store append --in missing.csv --store bad_flags.store --segment-mb 1.5)
run_cli_rejects(from store query --store missing.store --from 1x)
run_cli_rejects(keyframe serve --in missing.csv --shards 2 --keyframe 8k)
run_cli_rejects(net-timeout-ms serve --in missing.csv --shards 2 --net-timeout-ms 5s)
run_cli_rejects(hours simulate --preset tiny --hours 1x --out bad_flags.csv)
run_cli_rejects(hours simulate --preset tiny --hours 0 --out bad_flags.csv)
run_cli_rejects(attack-hour simulate --preset tiny --hours 2 --attack scan --attack-hour 2 --out bad_flags.csv)
run_cli_rejects(rate-scale simulate --preset tiny --rate-scale -1 --out bad_flags.csv)
run_cli_rejects(min-support policy --baseline missing.csv --check missing.csv --min-support -1)
run_cli_rejects(coverage policy --baseline missing.csv --check missing.csv --coverage 5)
run_cli_rejects(factor diff --before missing.csv --after missing.csv --factor 0.5)
run_cli_rejects(resolution segment --in missing.csv --resolution 0)
run_cli_rejects(watchdog-ms anomaly --in missing.csv --watchdog-ms -1)
run_cli_rejects(stall-ms anomaly --in missing.csv --stall-ms -5)
# --ops-port is an integer in [0, 65535], read by anomaly and serve only.
run_cli_rejects(ops-port anomaly --in missing.csv --ops-port 23456x)
run_cli_rejects(ops-port anomaly --in missing.csv --ops-port 70000)
run_cli_rejects(ops-port serve --in missing.csv --shards 2 --ops-port -1)
run_cli_rejects(ops-port graph --in missing.csv --ops-port 0)
run_cli_rejects(net-timeout-ms serve --in missing.csv --shards 2 --net-timeout-ms -5)
# Word-valued flags take one of their words.
run_cli_rejects(facet anomaly --in missing.csv --facet bogus)
run_cli_rejects(facet store append --in missing.csv --store bad_flags.store --facet IP)
run_cli_rejects(log-level anomaly --in missing.csv --log-level verbose)
run_cli_rejects(simd anomaly --in missing.csv --simd avx512)
# A flag the command does not read is an error, not a silent default.
run_cli_rejects(windwo anomaly --in missing.csv --windwo 30)
run_cli_rejects(no-such-flag anomaly --in missing.csv --no-such-flag 7)
run_cli_rejects(form store replay --store missing.store --form 5)
run_cli_rejects(window store replay --store missing.store --window 5)
run_cli_rejects(shard serve --in missing.csv --shard 1)
# serve is the one way to start shards: no listening aggregator.
run_cli_rejects(listen serve --in missing.csv --shards 2 --listen 0)
run_cli(2 aggregate --shards 2)
run_cli_rejects(hour simulate --preset tiny --hour 2 --out bad_flags.csv)
run_cli_rejects(rank segment --in missing.csv --rank 8)
run_cli_rejects(profile-out anomaly --in missing.csv --profile-out p.txt)
run_cli(0 simulate --preset tiny --hours 5 --seed 9 --attack lateral --attack-hour 4 --out long_attacked.csv)
run_cli(3 anomaly --in long_attacked.csv --train 3 --rank 8)

# Like run_cli but hands the exit code back to the caller — for commands
# whose code is data (alert vs no alert) rather than a fixed expectation.
# Stdout comes back in <out_var>_stdout.
function(run_cli_rc out_var)
  execute_process(COMMAND ${CLI} ${ARGN}
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(rc GREATER 3)
    message(FATAL_ERROR "ccgraph ${ARGN} -> rc=${rc}\n${out}\n${err}")
  endif()
  set(${out_var} ${rc} PARENT_SCOPE)
  set(${out_var}_stdout "${out}" PARENT_SCOPE)
endfunction()

run_cli_rc(version_rc --version)
if(NOT version_rc_stdout MATCHES "simd: compiled=")
  message(FATAL_ERROR "--version does not report the simd tiers:\n${version_rc_stdout}")
endif()
# A forced tier is the one reported as dispatched.
execute_process(COMMAND ${CMAKE_COMMAND} -E env CCG_SIMD=scalar ${CLI} --version
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE forced_version_rc
                OUTPUT_VARIABLE forced_version_out)
if(NOT forced_version_rc EQUAL 0 OR NOT forced_version_out MATCHES "dispatched=scalar")
  message(FATAL_ERROR "CCG_SIMD=scalar --version (rc ${forced_version_rc}) does not report dispatched=scalar:\n${forced_version_out}")
endif()

# Kernel determinism: the scalar simd tier prints the same anomaly report
# as auto dispatch (stdout, --summary-out bytes, exit code).
foreach(tier scalar auto)
  execute_process(COMMAND ${CMAKE_COMMAND} -E env CCG_SIMD=${tier} ${CLI}
                          anomaly --in long.csv --window 30 --train 2
                          --summary-out simd_${tier}.txt
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE simd_rc_${tier} OUTPUT_VARIABLE simd_out_${tier})
endforeach()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORKDIR}/simd_scalar.txt ${WORKDIR}/simd_auto.txt
                RESULT_VARIABLE simd_summary_differs)
file(SIZE ${WORKDIR}/simd_scalar.txt simd_summary_size)
if(simd_rc_scalar GREATER 3 OR NOT simd_rc_scalar EQUAL simd_rc_auto OR
   NOT simd_out_scalar STREQUAL simd_out_auto OR
   NOT simd_summary_differs EQUAL 0 OR simd_summary_size EQUAL 0)
  message(FATAL_ERROR "CCG_SIMD=scalar anomaly (rc ${simd_rc_scalar}) differs from auto (rc ${simd_rc_auto})")
endif()

# A malformed $CCG_THREADS is named in a warning and the default thread
# count runs: same report as the auto-tier run above.
execute_process(COMMAND ${CMAKE_COMMAND} -E env CCG_THREADS=4x ${CLI}
                        anomaly --in long.csv --window 30 --train 2
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE bad_threads_rc
                OUTPUT_VARIABLE bad_threads_out
                ERROR_VARIABLE bad_threads_err)
if(NOT bad_threads_rc EQUAL simd_rc_auto OR
   NOT bad_threads_out STREQUAL simd_out_auto OR
   NOT bad_threads_err MATCHES "CCG_THREADS")
  message(FATAL_ERROR "CCG_THREADS=4x anomaly (rc ${bad_threads_rc}) did not warn and run the default:\n${bad_threads_err}")
endif()
# The thread count resolves before input is read, so a command that forks
# no job warns too.
execute_process(COMMAND ${CMAKE_COMMAND} -E env CCG_THREADS=4x ${CLI} graph --in clean.csv
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE bad_threads_graph_rc
                OUTPUT_QUIET
                ERROR_VARIABLE bad_threads_graph_err)
if(NOT bad_threads_graph_rc EQUAL 0 OR NOT bad_threads_graph_err MATCHES "CCG_THREADS")
  message(FATAL_ERROR "CCG_THREADS=4x graph (rc ${bad_threads_graph_rc}) did not warn:\n${bad_threads_graph_err}")
endif()

# The resolved configuration rides in every metrics dump: thread count,
# simd tier and window length as gauges.
run_cli_rc(config_rc anomaly --in long.csv --window 30 --train 2 --threads 3
           --metrics-out config.json)
file(READ ${WORKDIR}/config.json config_json)
if(NOT config_json MATCHES "\"ccg\\.parallel\\.threads\": 3[,\n]" OR
   NOT config_json MATCHES "\"ccg\\.analytics\\.window_minutes\": 30[,\n]" OR
   NOT config_json MATCHES "\"ccg\\.simd\\.tier\": [01][,\n]")
  message(FATAL_ERROR "anomaly --threads 3 --window 30 metrics lack the configuration gauges:\n${config_json}")
endif()

# Thread-count determinism where parallel_for forks: a Portal log whose
# ~500-node windows give similarity scoring more than one chunk, so
# CCG_THREADS=4 forks jobs (checked in its metrics) even on a one-CPU host. Its
# anomaly report must equal CCG_THREADS=1's: stdout, --summary-out bytes
# and exit code.
run_cli(0 simulate --preset portal --hours 2 --rate-scale 0.05 --seed 7 --out portal.csv)
foreach(threads 1 4)
  execute_process(COMMAND ${CMAKE_COMMAND} -E env CCG_THREADS=${threads} ${CLI}
                          anomaly --in portal.csv --window 30 --train 2
                          --summary-out threads_${threads}.txt
                          --metrics-out threads_${threads}.json
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE threads_rc_${threads}
                  OUTPUT_VARIABLE threads_out_${threads})
endforeach()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORKDIR}/threads_1.txt ${WORKDIR}/threads_4.txt
                RESULT_VARIABLE threads_summary_differs)
file(SIZE ${WORKDIR}/threads_1.txt threads_summary_size)
if(threads_rc_1 GREATER 3 OR NOT threads_rc_1 EQUAL threads_rc_4 OR
   NOT threads_out_1 STREQUAL threads_out_4 OR
   NOT threads_summary_differs EQUAL 0 OR threads_summary_size EQUAL 0)
  message(FATAL_ERROR "CCG_THREADS=4 anomaly (rc ${threads_rc_4}) differs from CCG_THREADS=1 (rc ${threads_rc_1})")
endif()
file(READ ${WORKDIR}/threads_4.json threads_json)
if(NOT threads_json MATCHES "\"ccg\\.parallel\\.jobs\": [1-9]")
  message(FATAL_ERROR "CCG_THREADS=4 anomaly forked no parallel jobs")
endif()

# The scalar simd tier where the spectral score has k < n. long.csv has
# 10 nodes, fewer than rank 20, so the compare above only runs k = n; the
# Portal windows (n ~ 500, k = 20) run the low-rank reconstruction. Same
# stdout, summary bytes and rc as the auto-tier threads_1 run.
execute_process(COMMAND ${CMAKE_COMMAND} -E env CCG_SIMD=scalar CCG_THREADS=1 ${CLI}
                        anomaly --in portal.csv --window 30 --train 2
                        --summary-out portal_scalar.txt
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE portal_scalar_rc
                OUTPUT_VARIABLE portal_scalar_out)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORKDIR}/threads_1.txt ${WORKDIR}/portal_scalar.txt
                RESULT_VARIABLE portal_scalar_differs)
if(NOT portal_scalar_rc EQUAL threads_rc_1 OR
   NOT portal_scalar_out STREQUAL threads_out_1 OR
   NOT portal_scalar_differs EQUAL 0)
  message(FATAL_ERROR "CCG_SIMD=scalar Portal anomaly (rc ${portal_scalar_rc}) differs from the auto tier (rc ${threads_rc_1})")
endif()

# The sharding contract: `serve` forks N shard-worker processes, merges
# their partial graphs, and must match single-process `anomaly` byte for
# byte — same stdout, same --summary-out file, same exit code.
run_cli_rc(single_rc anomaly --in long.csv --window 30 --train 2
           --summary-out single_summary.txt)
file(SIZE ${WORKDIR}/single_summary.txt single_summary_size)
if(single_summary_size EQUAL 0)
  message(FATAL_ERROR "anomaly wrote an empty summary file")
endif()
foreach(shards 1 2 4)
  run_cli_rc(serve_rc serve --in long.csv --shards ${shards}
             --window 30 --train 2 --summary-out serve_summary_${shards}.txt
             --metrics-out serve_metrics_${shards}.json)
  if(NOT serve_rc EQUAL single_rc)
    message(FATAL_ERROR "serve --shards ${shards} rc=${serve_rc}, anomaly rc=${single_rc}")
  endif()
  if(NOT serve_rc_stdout STREQUAL single_rc_stdout)
    message(FATAL_ERROR "serve --shards ${shards} stdout differs from anomaly")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  ${WORKDIR}/single_summary.txt ${WORKDIR}/serve_summary_${shards}.txt
                  RESULT_VARIABLE serve_summary_differs)
  if(NOT serve_summary_differs EQUAL 0)
    message(FATAL_ERROR "serve --shards ${shards} summary differs from anomaly")
  endif()
  file(READ ${WORKDIR}/serve_metrics_${shards}.json serve_json)
  if(NOT serve_json MATCHES "\"ccg\\.dist\\.shards\": ${shards}[,\n]")
    message(FATAL_ERROR "serve --shards ${shards} metrics lack ccg.dist.shards ${shards}")
  endif()
  # Each telemetry frame counts itself, so the shards' own frame counts sum
  # to the frames the aggregator applied.
  string(JSON applied_frames GET "${serve_json}" counters
         "ccg.dist.agg.telemetry_frames")
  set(shipped_frames 0)
  math(EXPR last_shard "${shards} - 1")
  foreach(shard RANGE ${last_shard})
    string(JSON shard_frames GET "${serve_json}" counters
           "ccg.dist.shard.telemetry_frames{shard=${shard}}")
    math(EXPR shipped_frames "${shipped_frames} + ${shard_frames}")
  endforeach()
  if(NOT shipped_frames EQUAL applied_frames)
    message(FATAL_ERROR "serve --shards ${shards}: shards count ${shipped_frames} telemetry frames, the aggregator applied ${applied_frames}")
  endif()
endforeach()
# Each process prints its own log records, once: under a malformed
# $CCG_THREADS, serve and its two workers warn one time each, and the
# workers' records are not printed again by serve.
execute_process(COMMAND ${CMAKE_COMMAND} -E env CCG_THREADS=4x ${CLI}
                        serve --in long.csv --shards 2 --window 30 --train 2
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE bad_threads_serve_rc
                OUTPUT_VARIABLE bad_threads_serve_out
                ERROR_VARIABLE bad_threads_serve_err)
string(REGEX MATCHALL "ignoring CCG_THREADS" bad_threads_serve_warnings
       "${bad_threads_serve_err}")
list(LENGTH bad_threads_serve_warnings bad_threads_serve_count)
if(NOT bad_threads_serve_rc EQUAL single_rc OR
   NOT bad_threads_serve_out STREQUAL single_rc_stdout OR
   NOT bad_threads_serve_count EQUAL 3)
  message(FATAL_ERROR "CCG_THREADS=4x serve --shards 2 (rc ${bad_threads_serve_rc}) printed the CCG_THREADS warning ${bad_threads_serve_count} times (want 3: serve and two workers) or differs from anomaly:\n${bad_threads_serve_err}")
endif()

# The live ops endpoint of a 4-shard serve: /healthz comes up, /readyz
# reports ready while shards stream, and /metrics
# carries per-shard ccg_dist_* series (proof that telemetry frames crossed
# the wire into the fleet registry) under # HELP / # TYPE headers. The port
# goes to stderr only; stdout stays the analytics report. --stall-ms keeps
# the run alive over many scrapes. ops_scrape.cmake runs first in the
# pipeline, so OUTPUT_VARIABLE is serve's stdout. A port someone else holds
# fails the bind; retry on another.
foreach(attempt RANGE 2)
  string(RANDOM LENGTH 4 ALPHABET 123456789 port_offset)
  math(EXPR ops_port "20000 + ${port_offset}")
  execute_process(COMMAND ${CMAKE_COMMAND} -DPORT=${ops_port}
                          -DOUT=${WORKDIR}/ops_metrics.prom
                          -P ${CMAKE_CURRENT_LIST_DIR}/ops_scrape.cmake
                  COMMAND ${CLI} serve --in long.csv --shards 4 --window 30
                          --train 2 --stall-ms 300 --ops-port ${ops_port}
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULTS_VARIABLE ops_rcs
                  OUTPUT_VARIABLE ops_out
                  ERROR_VARIABLE ops_err)
  if(NOT ops_err MATCHES "cannot bind ops endpoint")
    break()
  endif()
endforeach()
list(GET ops_rcs 0 scrape_rc)
list(GET ops_rcs 1 ops_serve_rc)
if(NOT scrape_rc EQUAL 0 OR NOT (ops_serve_rc EQUAL 0 OR ops_serve_rc EQUAL 3))
  message(FATAL_ERROR "ops scrape rc=${scrape_rc}, serve rc=${ops_serve_rc} (want 0, and 0 or 3)\n${ops_err}")
endif()
if(NOT ops_err MATCHES "ccgraph: ops endpoint on 127\\.0\\.0\\.1:${ops_port}")
  message(FATAL_ERROR "serve did not name its ops port on stderr:\n${ops_err}")
endif()
if(ops_out MATCHES "ops endpoint")
  message(FATAL_ERROR "serve printed its ops endpoint on stdout:\n${ops_out}")
endif()
if(NOT EXISTS ${WORKDIR}/ops_metrics.prom)
  message(FATAL_ERROR "no /metrics scrape carried shard-labeled series")
endif()
file(READ ${WORKDIR}/ops_metrics.prom ops_metrics)
foreach(pattern "ccg_dist_[a-z0-9_]*{shard=\"0\"}" "ccg_dist_[a-z0-9_]*{shard=\"3\"}"
                "\n# HELP " "\n# TYPE ")
  if(NOT ops_metrics MATCHES "${pattern}")
    message(FATAL_ERROR "ops /metrics scrape lacks ${pattern}:\n${ops_metrics}")
  endif()
endforeach()

# Store round-trip over 90 two-minute windows: replaying the snapshot store
# must reproduce the direct streaming run line for line (same summaries,
# same exit code), before and after compaction.
file(REMOVE_RECURSE ${WORKDIR}/winstore)
run_cli(0 simulate --preset tiny --hours 3 --seed 11 --out store_flows.csv)
run_cli(0 store append --in store_flows.csv --store winstore --window 2)
# store stats reports Fig. 5 churn, the share of the graph that does not
# persist into the next window (1 - node/edge Jaccard): every percentage
# on its churn line lies in [0, 100].
run_cli_rc(stats_rc store stats --store winstore)
string(REGEX MATCH "churn: [^\n]*" churn_line "${stats_rc_stdout}")
string(REGEX MATCHALL "[-0-9.]+%" churn_pcts "${churn_line}")
list(LENGTH churn_pcts churn_pct_count)
if(NOT stats_rc EQUAL 0 OR NOT churn_pct_count EQUAL 2 OR
   NOT stats_rc_stdout MATCHES "edge churn histogram")
  message(FATAL_ERROR "store stats printed no churn report:\n${stats_rc_stdout}")
endif()
foreach(pct IN LISTS churn_pcts)
  string(REPLACE "%" "" pct "${pct}")
  if(pct LESS 0 OR pct GREATER 100)
    message(FATAL_ERROR "store stats churn ${pct}% outside [0, 100]: ${churn_line}")
  endif()
endforeach()
run_cli(0 store query --store winstore --from 60 --to 120)
run_cli_rc(direct_rc anomaly --in store_flows.csv --window 2 --train 5
           --summary-out direct_summaries.txt)
run_cli_rc(replay_rc store replay --store winstore --train 5
           --summary-out replayed_summaries.txt)
if(NOT direct_rc EQUAL replay_rc)
  message(FATAL_ERROR "replay rc=${replay_rc} differs from direct rc=${direct_rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORKDIR}/direct_summaries.txt ${WORKDIR}/replayed_summaries.txt
                RESULT_VARIABLE summaries_differ)
if(NOT summaries_differ EQUAL 0)
  message(FATAL_ERROR "store replay summaries differ from the direct run")
endif()
# Three hours at --window 2 is 90 windows, one summary line each: a short
# file means windows went missing on both sides.
file(READ ${WORKDIR}/direct_summaries.txt direct_summaries)
string(REGEX MATCHALL "\n" direct_newlines "${direct_summaries}")
list(LENGTH direct_newlines direct_lines)
if(direct_lines LESS 60)
  message(FATAL_ERROR "direct run wrote ${direct_lines} summary lines, want >= 60")
endif()

# Every subcommand honors the global --metrics-out/--metrics-prom flags —
# including the store family, whose export regressing silently would leave
# production runs blind.
function(check_metrics_files tag)
  foreach(suffix json prom)
    if(NOT EXISTS ${WORKDIR}/m_${tag}.${suffix})
      message(FATAL_ERROR "${tag}: metrics file m_${tag}.${suffix} not written")
    endif()
    file(SIZE ${WORKDIR}/m_${tag}.${suffix} metrics_size)
    if(metrics_size EQUAL 0)
      message(FATAL_ERROR "${tag}: metrics file m_${tag}.${suffix} is empty")
    endif()
  endforeach()
endfunction()

run_cli(0 graph --in clean.csv --metrics-out m_graph.json --metrics-prom m_graph.prom)
check_metrics_files(graph)
run_cli(0 segment --in clean.csv --metrics-out m_segment.json --metrics-prom m_segment.prom)
check_metrics_files(segment)
run_cli(0 report --in clean.csv --metrics-out m_report.json --metrics-prom m_report.prom)
check_metrics_files(report)
# report's analytics pass records per-stage latency, and its graph build
# shows up under the builder's own series.
file(READ ${WORKDIR}/m_report.json report_json)
if(NOT report_json MATCHES "\"ccg\\.analytics\\.stage\\.build\\.seconds\": {\"count\": [1-9]")
  message(FATAL_ERROR "report: ccg.analytics.stage.build.seconds has no samples")
endif()
file(READ ${WORKDIR}/m_report.prom report_prom)
if(NOT report_prom MATCHES "ccg_graph_records_total")
  message(FATAL_ERROR "report: ccg_graph_records_total missing from Prometheus export")
endif()
run_cli(0 anomaly --in long.csv --train 3 --rank 8 --metrics-out m_anomaly.json --metrics-prom m_anomaly.prom)
check_metrics_files(anomaly)
run_cli(0 store stats --store winstore --metrics-out m_stats.json --metrics-prom m_stats.prom)
check_metrics_files(stats)
run_cli(0 store query --store winstore --metrics-out m_query.json --metrics-prom m_query.prom)
check_metrics_files(query)
run_cli_rc(ignored_rc store replay --store winstore --train 5
           --summary-out replay_metrics_summaries.txt
           --metrics-out m_replay.json --metrics-prom m_replay.prom)
check_metrics_files(replay)

# The trace subcommand forces tracing on, prints span trees, and --trace-out
# writes Chrome trace-event JSON any command could also produce.
run_cli(0 trace --in long.csv --window 30 --train 2 --trace-out trace.json)
if(NOT EXISTS ${WORKDIR}/trace.json)
  message(FATAL_ERROR "trace subcommand did not write trace.json")
endif()
file(READ ${WORKDIR}/trace.json trace_json)
if(NOT trace_json MATCHES "traceEvents")
  message(FATAL_ERROR "trace.json is not trace-event JSON")
endif()
if(NOT trace_json MATCHES "ccg.analytics.window")
  message(FATAL_ERROR "trace.json is missing the window root spans")
endif()

# `ccgraph profile` runs any command with the span ring on and attributes
# span self time along the same tree `trace` prints: every analysis-stage
# frame sits under the window frame (stage.build runs at ingest, before its
# window closes, so it is a root).
run_cli_rc(profile_rc profile anomaly --in long.csv --window 30 --train 2
           --profile-out profile_folded.txt --profile-json profile.json)
if(NOT (profile_rc EQUAL 0 OR profile_rc EQUAL 3))
  message(FATAL_ERROR "profile anomaly -> rc=${profile_rc} (want 0 or 3)")
endif()
string(FIND "${profile_rc_stdout}" "==== profile: anomaly ====" table_at)
if(table_at EQUAL -1)
  message(FATAL_ERROR "profile printed no table:\n${profile_rc_stdout}")
endif()
string(SUBSTRING "${profile_rc_stdout}" ${table_at} -1 profile_table)
if(NOT profile_table MATCHES "ccg\\.analytics\\.window")
  message(FATAL_ERROR "profile table does not name ccg.analytics.window:\n${profile_table}")
endif()
file(READ ${WORKDIR}/profile_folded.txt folded_text)
if(folded_text STREQUAL "")
  message(FATAL_ERROR "profile wrote no folded stacks")
endif()
# Frames are ';'-separated, which is also CMake's list separator: swap them
# out so each line stays one list element.
string(REPLACE ";" "|" folded_text "${folded_text}")
string(REPLACE "\n" ";" folded_lines "${folded_text}")
foreach(line IN LISTS folded_lines)
  string(FIND "${line}" "ccg.analytics.stage." stage_at)
  string(FIND "${line}" "ccg.analytics.stage.build" build_at)
  if(stage_at EQUAL -1 OR build_at EQUAL stage_at)
    continue()
  endif()
  string(FIND "${line}" "ccg.analytics.window" window_at)
  if(window_at EQUAL -1 OR window_at GREATER stage_at)
    message(FATAL_ERROR "profile: stage frame outside its window: ${line}")
  endif()
endforeach()
file(READ ${WORKDIR}/profile.json profile_json)
if(NOT profile_json MATCHES "\"folded\": \\[\n *{\"stack\": ")
  message(FATAL_ERROR "profile.json has no folded stacks")
endif()

# `profile serve` adds up: the aggregator's handshake, barrier wait and
# merge spans close before the window's analysis opens, so no time counts
# twice and the self times (with "(untracked)") sum to the wall. Seconds
# have six decimals, so without the point they are microseconds.
run_cli(0 profile serve --in long.csv --shards 2 --window 3 --train 2
          --profile-json profile_serve.json)
file(READ ${WORKDIR}/profile_serve.json profile_json)
string(REGEX MATCH "\"wall_seconds\": ([0-9]+)\\.([0-9]+)" _ "${profile_json}")
set(wall_us ${CMAKE_MATCH_1}${CMAKE_MATCH_2})
string(REGEX MATCHALL "\"self_seconds\": [0-9]+\\.[0-9]+" self_fields "${profile_json}")
string(REGEX REPLACE "[^0-9;]" "" self_fields "${self_fields}")
string(REPLACE ";" " + " self_sum "${self_fields}")
math(EXPR gap_us "100 * (${self_sum} - ${wall_us})")
if(gap_us GREATER wall_us OR gap_us LESS -${wall_us}
   OR NOT profile_json MATCHES "ccg\\.dist\\.agg\\.handshake")
  message(FATAL_ERROR "profile serve: self times (${self_sum}) more than 1% from "
                      "the wall (${wall_us} us), or no ccg.dist.agg.handshake span")
endif()

# A stalled window (injected) must trip the watchdog into writing a flight
# record that names the stall.
file(REMOVE_RECURSE ${WORKDIR}/flightdir)
file(MAKE_DIRECTORY ${WORKDIR}/flightdir)
run_cli(0 trace --in long.csv --window 60 --train 2 --stall-ms 400
          --watchdog-ms 100 --flight-dir flightdir)
file(GLOB stall_dumps ${WORKDIR}/flightdir/ccg-flight-stall-*.json)
if(stall_dumps STREQUAL "")
  message(FATAL_ERROR "stalled window produced no flight record")
endif()
list(GET stall_dumps 0 stall_dump)
file(READ ${stall_dump} stall_json)
if(NOT stall_json MATCHES "window stalled past watchdog deadline")
  message(FATAL_ERROR "flight record is missing the stall log line")
endif()
if(stall_json MATCHES "\"span_count\": 0,")
  message(FATAL_ERROR "flight record captured no spans")
endif()
if(NOT stall_json MATCHES "\"metrics\": {[ \t\r\n]*\"counters\"")
  message(FATAL_ERROR "flight record is missing the metrics snapshot")
endif()

# Flags are the only configuration: $CCG_WATCHDOG_MS alone arms nothing,
# where --watchdog-ms 100 above wrote a stall record.
file(REMOVE_RECURSE ${WORKDIR}/flight_env_only)
file(MAKE_DIRECTORY ${WORKDIR}/flight_env_only)
execute_process(COMMAND ${CMAKE_COMMAND} -E env CCG_WATCHDOG_MS=100
                        ${CLI} trace --in long.csv --window 60 --train 2
                        --stall-ms 400 --flight-dir flight_env_only
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "watchdog env only: trace rc=${rc}\n${err}")
endif()
file(GLOB stall_dumps_env_only ${WORKDIR}/flight_env_only/ccg-flight-stall-*.json)
if(NOT stall_dumps_env_only STREQUAL "")
  message(FATAL_ERROR "CCG_WATCHDOG_MS armed the watchdog: ${stall_dumps_env_only}")
endif()

run_cli(0 store compact --store winstore --keyframe 4)
run_cli_rc(replay2_rc store replay --store winstore --train 5
           --summary-out replayed_after_compact.txt)
if(NOT replay2_rc EQUAL direct_rc)
  message(FATAL_ERROR "post-compact replay rc=${replay2_rc} differs from ${direct_rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORKDIR}/direct_summaries.txt ${WORKDIR}/replayed_after_compact.txt
                RESULT_VARIABLE compacted_differ)
if(NOT compacted_differ EQUAL 0)
  message(FATAL_ERROR "summaries changed after compaction")
endif()
