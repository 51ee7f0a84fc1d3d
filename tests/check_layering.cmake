# Layering guard for the modules below cluster. Fails when a file under
# src/util, src/oocore or src/mapreduce includes a cluster/ header, or
# when a file under src/util includes a header of any other module.
#
#   cmake -DSRC_DIR=<repo>/src -P tests/check_layering.cmake
if(NOT IS_DIRECTORY "${SRC_DIR}")
  message(FATAL_ERROR "check_layering: pass -DSRC_DIR=<repo>/src")
endif()

set(include_regex "^[ \t]*#[ \t]*include[ \t]*\"([^\"]+)\"")
set(violations "")
set(checked 0)
foreach(module util oocore mapreduce)
  file(GLOB_RECURSE files "${SRC_DIR}/${module}/*.hpp"
                          "${SRC_DIR}/${module}/*.cpp")
  foreach(file IN LISTS files)
    math(EXPR checked "${checked} + 1")
    file(STRINGS "${file}" lines REGEX "${include_regex}")
    foreach(line IN LISTS lines)
      string(REGEX REPLACE "${include_regex}.*" "\\1" header "${line}")
      if(header MATCHES "^cluster/")
        list(APPEND violations "${file} includes ${header}")
      elseif(module STREQUAL "util" AND header MATCHES "/"
             AND NOT header MATCHES "^util/")
        list(APPEND violations "${file} includes ${header} (util stands alone)")
      endif()
    endforeach()
  endforeach()
endforeach()

if(checked EQUAL 0)
  message(FATAL_ERROR "check_layering: no util, oocore or mapreduce files "
                      "under ${SRC_DIR}")
endif()
if(violations)
  list(JOIN violations "\n  " report)
  message(FATAL_ERROR "layering violations:\n  ${report}")
endif()
message(STATUS "layering ok: ${checked} files under util, oocore, mapreduce")
