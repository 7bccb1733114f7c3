# Cross-version dispatch golden: rerun one `cryptopim serve` row and compare
# the SHA-256 of its outputs with the digests pinned in
# dispatch_digests.txt (recorded from the pre-AdmissionQueue dispatcher).
#
#   cmake -DCLI=<cryptopim> -DJSON_CHECK=<json_check> -DROW=<name>
#         -DDIGESTS=<file> "-DARGS=<flags>" [-DJOURNAL=ON] [-DRECORD=ON]
#         -P dispatch_golden.cmake
#
# Digested artefacts per row: `report` (the --json stdout) and `events`
# (the --events stream); with JOURNAL=ON also `journal` (journal.log of a
# second run of the same row with --journal DIR --snapshot-every 200).
# Every artefact must also pass json_check in its own mode (--serving or
# --fleet, --events, --journal), also when RECORD=ON prints the digest
# lines instead of checking them.
foreach(var CLI JSON_CHECK ROW DIGESTS ARGS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "dispatch_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

separate_arguments(args UNIX_COMMAND "${ARGS}")
set(work "${CMAKE_CURRENT_BINARY_DIR}/dispatch_golden_${ROW}")
file(REMOVE_RECURSE "${work}")
file(MAKE_DIRECTORY "${work}")

set(report_mode --serving)
if(" ${ARGS} " MATCHES " --fleet ")
  set(report_mode --fleet)
endif()
set(runs report)
if(JOURNAL)
  list(APPEND runs journal)
endif()

set(lines "")
set(failed "")
foreach(run IN LISTS runs)
  if(run STREQUAL "report")
    set(cmd "${CLI}" serve ${args} --json --events "${work}/events.jsonl")
    set(artefacts report "${work}/report.json" events "${work}/events.jsonl")
  else()
    set(cmd "${CLI}" serve ${args} --journal "${work}/jd" --snapshot-every 200
        --json)
    set(artefacts journal "${work}/jd/journal.log")
  endif()
  string(JOIN " " shown ${cmd})
  execute_process(COMMAND ${cmd}
                  OUTPUT_FILE "${work}/${run}.stdout"
                  ERROR_FILE "${work}/${run}.stderr"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "row ${ROW}: exit ${rc}\n  command: ${shown}")
  endif()
  if(run STREQUAL "report")
    file(RENAME "${work}/report.stdout" "${work}/report.json")
  endif()
  while(artefacts)
    list(POP_FRONT artefacts name path)
    if(name STREQUAL "report")
      set(mode ${report_mode})
    else()
      set(mode --${name})
    endif()
    execute_process(COMMAND "${JSON_CHECK}" ${mode} "${path}"
                    OUTPUT_QUIET ERROR_VARIABLE check_err
                    RESULT_VARIABLE check_rc)
    if(NOT check_rc EQUAL 0)
      string(APPEND failed "  ${name}: json_check ${mode} failed\n${check_err}")
    endif()
    file(SHA256 "${path}" got)
    string(APPEND lines "${ROW} ${name} ${got}\n")
    if(NOT RECORD)
      file(STRINGS "${DIGESTS}" pinned REGEX "^${ROW} ${name} ")
      if(NOT pinned STREQUAL "${ROW} ${name} ${got}")
        string(APPEND failed
               "  ${name}: got ${got}, pinned '${pinned}'\n"
               "    command: ${shown}\n")
      endif()
    endif()
  endwhile()
endforeach()

if(RECORD)
  message("${lines}")
endif()
if(failed)
  message(FATAL_ERROR "row ${ROW} fails against ${DIGESTS}:\n${failed}")
endif()
