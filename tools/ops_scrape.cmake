# Scrapes a live ops endpoint on 127.0.0.1:PORT for smoke_test.cmake:
#
#   cmake -DPORT=9464 -DOUT=ops_metrics.prom -P ops_scrape.cmake
#
# Waits up to ~30 s for /healthz, then polls /metrics until the endpoint
# goes away. OUT receives the last scrape that carried shard="N" series;
# it is not written when none did. Fails when /healthz never answered or
# /readyz never reported ready.
set(ENV{no_proxy} "127.0.0.1")
set(ENV{NO_PROXY} "127.0.0.1")
set(base "http://127.0.0.1:${PORT}")
file(REMOVE ${OUT})

set(up FALSE)
foreach(attempt RANGE 300)
  file(DOWNLOAD ${base}/healthz ${OUT}.part STATUS status TIMEOUT 2)
  list(GET status 0 code)
  if(code EQUAL 0)
    set(up TRUE)
    break()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(NOT up)
  message(FATAL_ERROR "ops endpoint on port ${PORT} never came up")
endif()

# Bounded at ~10 minutes of polling in case the endpoint never closes.
set(ready FALSE)
foreach(attempt RANGE 3000)
  if(NOT ready)
    file(DOWNLOAD ${base}/readyz ${OUT}.part STATUS status TIMEOUT 5)
    list(GET status 0 code)
    if(code EQUAL 0)
      set(ready TRUE)
    endif()
  endif()
  file(DOWNLOAD ${base}/metrics ${OUT}.part STATUS status TIMEOUT 5)
  list(GET status 0 code)
  if(NOT code EQUAL 0)
    break()
  endif()
  file(READ ${OUT}.part scrape)
  if(scrape MATCHES "shard=\"")
    file(WRITE ${OUT} "${scrape}")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.2)
endforeach()
file(REMOVE ${OUT}.part)
if(NOT ready)
  message(FATAL_ERROR "ops endpoint on port ${PORT} never reported ready")
endif()
