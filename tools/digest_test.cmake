# The committed report digests (perfbench/digests.json, only read here):
# regenerates the benchmark's seed-7 inputs with `ccgraph simulate`, runs
# each workload's reference command at --threads 1 --simd scalar and
# compares the SHA-256 of its stdout with the committed entry. A change
# that alters one byte of a report fails here. Only the k8s anomaly digest
# (one 6 x 60 min fit) is left to perfbench/run.py.
#
#   cmake -DCLI=<ccgraph> -DWORKDIR=<dir> -DDIGESTS=<digests.json> -P digest_test.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)
file(READ ${DIGESTS} digests)
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})
set(reference_flags --threads 1 --simd scalar)

# Runs ccgraph with the given arguments; `ok` lists the accepted exit codes
# (anomaly, replay and serve exit 3 when a window alerts).
function(run_cli ok)
  execute_process(COMMAND ${CLI} ${ARGN}
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE rc
                  OUTPUT_FILE ${WORKDIR}/stdout.txt
                  ERROR_VARIABLE err)
  if(NOT rc IN_LIST ok)
    message(FATAL_ERROR "ccgraph ${ARGN} -> rc=${rc} (want ${ok})\n${err}")
  endif()
endfunction()

# Runs a reference command and compares its stdout with digests.json's
# entry `key`.
function(expect_digest key)
  run_cli("0;3" ${ARGN} ${reference_flags})
  file(SHA256 ${WORKDIR}/stdout.txt got)
  string(JSON want GET "${digests}" "${key}")
  if(NOT got STREQUAL want)
    string(JOIN " " command ${ARGN} ${reference_flags})
    message(FATAL_ERROR "${key}: stdout of `ccgraph ${command}` hashes to "
                        "${got}, digests.json has ${want}")
  endif()
  message(STATUS "${key}: ${got}")
endfunction()

run_cli(0 simulate --preset tiny --hours 5 --seed 7 --out tiny.csv)
expect_digest(tiny-5h-x1.0-s7/k8s-anomaly anomaly --in tiny.csv --window 60)
run_cli(0 store append --in tiny.csv --store tiny.store --window 3)
expect_digest(tiny-5h-x1.0-s7/k8s-replay store replay --store tiny.store)
expect_digest(tiny-5h-x1.0-s7/k8s-serve
              serve --in tiny.csv --shards 2 --window 3 --store serve.store)
# serve's output does not depend on the shard count.
expect_digest(tiny-5h-x1.0-s7/k8s-serve
              serve --in tiny.csv --shards 3 --window 3 --store serve3.store)

run_cli(0 simulate --preset k8s --hours 6 --rate-scale 0.125 --seed 7 --out k8s.csv)
run_cli(0 store append --in k8s.csv --store k8s.store --window 3)
expect_digest(k8s-6h-x0.125-s7/k8s-serve
              serve --in k8s.csv --shards 2 --window 3 --store k8s-serve.store)
file(REMOVE ${WORKDIR}/k8s.csv)
expect_digest(k8s-6h-x0.125-s7/k8s-replay store replay --store k8s.store)

file(REMOVE_RECURSE ${WORKDIR})
