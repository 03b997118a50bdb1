# dtnsim CLI golden tests (ctest target `dtnsim_cli_golden`, label `fast`).
#
# Locks the user-facing diagnostic surface of the scenario-file driver:
#   - `check` on a cfg with unknown keys — the line-numbered nearest-key
#     suggestion output, exit 1;
#   - `check` on a cfg with unparsable values — exit 1;
#   - `check` on cfgs whose traffic section fails validation (inverted
#     interval; full_ttl_window with ttl >= duration), whose world
#     section would run no steps (world.step_dt = 0), or whose protocol
#     section would silently run another protocol (protocol.copies = 0),
#     or whose group model would hang the run (a bus stop_spacing of 0
#     with zero pauses) — exit 1 with the explanatory diagnostic;
#   - `run` on a missing file — exit 1;
#   - `check` on EVERY shipped examples/*.cfg — exit 0 with its golden
#     summary line (a new example cfg must ship
#     tests/cli/expected/check_<name>.stdout alongside it);
#   - `sweep --resume` diagnostics — the no-journal-path usage error, the
#     missing-journal fresh-start note, the different-campaign refusal (for
#     one journal and for a --workers fleet's shard journals), and the
#     corrupt-tail recovery warning (goldens sweep_resume_*);
#   - nonsensical robustness knobs — negative --retries/--sync-every, a
#     zero --point-timeout, a --shard selector with i >= N or N == 0,
#     --shard combined with --workers, --workers without a journal anchor,
#     --fault combined with --hosts — every one exits 2 (usage/config) with
#     its pinned one-line stderr;
#   - the exit-code contract the worker supervision loop depends on:
#     0 = clean campaign, 1 = completed-with-failures (and runtime errors
#     like a missing file), 2 = usage/config error — each pinned by at
#     least one case in this file;
#   - `journal` inspection over the COMMITTED torn-tail fixture
#     tests/cli/torn.journal (byte counts in the output are only stable
#     for committed bytes — journal records embed wall-time hexfloats, so
#     a journal generated at test time would not golden) and over a
#     missing file.
# Golden files live in tests/cli/expected/. Commands run with the relevant
# directory as CWD so goldens contain relative paths only; the resume
# cases run inside a scratch dir under WORK_DIR so their journals never
# touch the source tree. A golden name of `-` skips that stream (used when
# the other stream carries the diagnostic under test and this one holds
# volatile campaign output).
#
# Invoked by CTest with -DDTNSIM=... -DSOURCE_DIR=... -DWORK_DIR=...
# (see CMakeLists.txt).

set(CLI_DIR ${SOURCE_DIR}/tests/cli)
set(EXPECTED_DIR ${CLI_DIR}/expected)

# Compares one captured stream against its golden file ("" = must be
# empty, "-" = unchecked).
function(check_stream label stream golden actual)
  if(golden STREQUAL "-")
    return()
  endif()
  if(golden STREQUAL "")
    if(NOT actual STREQUAL "")
      message(FATAL_ERROR "${label}: expected empty ${stream}, got:\n${actual}")
    endif()
    return()
  endif()
  if(NOT EXISTS ${EXPECTED_DIR}/${golden})
    message(FATAL_ERROR "${label}: golden file ${golden} is missing — "
                        "generate it from verified output")
  endif()
  file(READ ${EXPECTED_DIR}/${golden} want)
  if(NOT actual STREQUAL want)
    message(FATAL_ERROR "${label}: ${stream} diverged from ${golden}\n"
                        "--- expected ---\n${want}\n--- actual ---\n${actual}")
  endif()
endfunction()

# Runs dtnsim with ARGN in `workdir`; requires exit code `exit_expect`,
# stdout equal to golden `out_golden` (or empty when ""), stderr equal to
# golden `err_golden` (or empty when "").
function(golden_case label workdir exit_expect out_golden err_golden)
  execute_process(COMMAND ${DTNSIM} ${ARGN} WORKING_DIRECTORY ${workdir}
                  RESULT_VARIABLE rv OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rv STREQUAL "${exit_expect}")
    message(FATAL_ERROR
            "${label}: exit code ${rv}, expected ${exit_expect}\nstderr:\n${err}")
  endif()
  check_stream("${label}" stdout "${out_golden}" "${out}")
  check_stream("${label}" stderr "${err_golden}" "${err}")
endfunction()

golden_case("check unknown_key.cfg" ${CLI_DIR} 1
            "" check_unknown_key.stderr
            check unknown_key.cfg)
golden_case("check bad_value.cfg" ${CLI_DIR} 1
            "" check_bad_value.stderr
            check bad_value.cfg)
golden_case("check bad_traffic.cfg" ${CLI_DIR} 1
            "" check_bad_traffic.stderr
            check bad_traffic.cfg)
golden_case("check bad_ttl_window.cfg" ${CLI_DIR} 1
            "" check_bad_ttl_window.stderr
            check bad_ttl_window.cfg)
golden_case("check bad_world.cfg" ${CLI_DIR} 1
            "" check_bad_world.stderr
            check bad_world.cfg)
golden_case("check bad_protocol.cfg" ${CLI_DIR} 1
            "" check_bad_protocol.stderr
            check bad_protocol.cfg)
golden_case("check bad_model.cfg" ${CLI_DIR} 1
            "" check_bad_model.stderr
            check bad_model.cfg)
golden_case("run missing file" ${CLI_DIR} 1
            "" run_missing_file.stderr
            run nosuch.cfg)

file(GLOB example_cfgs ${SOURCE_DIR}/examples/*.cfg)
if(example_cfgs STREQUAL "")
  message(FATAL_ERROR "no examples/*.cfg found — glob broken?")
endif()
foreach(cfg ${example_cfgs})
  get_filename_component(name ${cfg} NAME_WE)
  golden_case("check examples/${name}.cfg" ${SOURCE_DIR} 0
              check_${name}.stdout ""
              check examples/${name}.cfg)
endforeach()

# ---- robustness-knob validation (all exit 2: usage/config errors) -----------
# The `--flag=-1` spelling is deliberate: it pins that negative values are
# parsed as values (not mistaken for flags) and then rejected by range.
golden_case("sweep --retries=-1" ${CLI_DIR} 2
            "" sweep_bad_retries.stderr
            sweep resume.cfg --retries=-1)
golden_case("sweep --sync-every=-1" ${CLI_DIR} 2
            "" sweep_bad_sync_every.stderr
            sweep resume.cfg --sync-every=-1)
golden_case("sweep --point-timeout 0" ${CLI_DIR} 2
            "" sweep_bad_point_timeout.stderr
            sweep resume.cfg --point-timeout 0)
golden_case("sweep --shard 3/3" ${CLI_DIR} 2
            "" sweep_bad_shard_range.stderr
            sweep resume.cfg --shard 3/3)
golden_case("sweep --shard 0/0" ${CLI_DIR} 2
            "" sweep_bad_shard_zero.stderr
            sweep resume.cfg --shard 0/0)
golden_case("sweep --shard with --workers" ${CLI_DIR} 2
            "" sweep_shard_workers_conflict.stderr
            sweep resume.cfg --shard 0/2 --workers 2)
golden_case("sweep --workers without journal anchor" ${CLI_DIR} 2
            "" sweep_workers_no_out.stderr
            sweep resume.cfg --workers 2)

# ---- multi-host fabric validation (all exit 2, refused before any I/O) ------
golden_case("serve without --port" ${CLI_DIR} 2
            "" serve_no_port.stderr
            serve)
golden_case("serve --port out of range" ${CLI_DIR} 2
            "" serve_bad_port.stderr
            serve --port 70000)
golden_case("sweep malformed --hosts entry" ${CLI_DIR} 2
            "" sweep_bad_hosts.stderr
            sweep resume.cfg --hosts 127.0.0.1)
golden_case("sweep --hosts without journal anchor" ${CLI_DIR} 2
            "" sweep_hosts_no_out.stderr
            sweep resume.cfg --hosts 127.0.0.1:19)
golden_case("sweep --shard with --hosts" ${CLI_DIR} 2
            "" sweep_shard_hosts_conflict.stderr
            sweep resume.cfg --shard 0/2 --hosts 127.0.0.1:19)
golden_case("sweep --fault with --hosts" ${CLI_DIR} 2
            "" sweep_fault_hosts_conflict.stderr
            sweep resume.cfg --hosts 127.0.0.1:19 --fault kill@point=0)

# ---- journal inspection ------------------------------------------------------
# The committed torn-tail fixture: a real two-point campaign journal (one
# ok record, one failed record) with garbage appended behind the valid
# prefix. `journal` must report the campaign shape, the torn tail, and the
# DAMAGED verdict — exit 1. A missing journal is also exit 1.
golden_case("journal torn fixture" ${CLI_DIR} 1
            journal_torn.stdout ""
            journal torn.journal)
golden_case("journal missing file" ${CLI_DIR} 1
            "" journal_missing.stderr
            journal nosuch.journal)

# ---- sweep --resume diagnostics ---------------------------------------------
# All campaign runs use the tiny tests/cli/resume.cfg fixture and live in a
# scratch dir so journals/results never land in the source tree. Campaign
# stdout (tables, point counts) is skipped with `-`; the goldens pin the
# stderr diagnostics, which are the surface under test.
if(NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "dtnsim_cli_golden needs -DWORK_DIR=<build scratch root>")
endif()
set(RESUME_DIR ${WORK_DIR}/cli_golden_resume)
file(REMOVE_RECURSE ${RESUME_DIR})
file(MAKE_DIRECTORY ${RESUME_DIR})
set(FIXTURE ${CLI_DIR}/resume.cfg)

# --resume with nowhere to look for a journal: usage error before any
# simulation runs.
golden_case("sweep --resume without journal path" ${RESUME_DIR} 2
            "" sweep_resume_no_journal.stderr
            sweep ${FIXTURE} --resume --quiet)

# --resume with a journal path that does not exist yet: noted as a fresh
# start, campaign runs to completion.
golden_case("sweep --resume missing journal" ${RESUME_DIR} 0
            - sweep_resume_fresh.stderr
            sweep ${FIXTURE} --seeds 1 --quiet --out fresh.json --resume)

# A journal written by a DIFFERENT campaign (axis values changed) must be
# refused loudly, never silently mixed in. The stale journal survives its
# campaign because the injected fault leaves a failed point behind.
golden_case("sweep: seed a stale journal" ${RESUME_DIR} 1
            - -
            sweep ${FIXTURE} --axis protocol.copies=2,4 --seeds 1 --quiet
            --journal stale.j --fault throw@point=1:fires=99)
golden_case("sweep --resume foreign journal" ${RESUME_DIR} 1
            - sweep_resume_stale.stderr
            sweep ${FIXTURE} --axis protocol.copies=2,8 --seeds 1 --quiet
            --journal stale.j --resume)

# The same refusal on a --workers fleet: the scheduler audits every shard
# journal before it starts a worker, and prints one refusal per foreign
# journal. The stale shard journals survive their campaign because the
# injected fault leaves a failed point behind.
golden_case("sweep: seed stale fleet journals" ${RESUME_DIR} 1
            - -
            sweep ${FIXTURE} --axis protocol.copies=2,4 --seeds 1 --quiet
            --journal fleet_stale.j --workers 2 --fault throw@point=1:fires=99)
golden_case("sweep --workers --resume foreign journals" ${RESUME_DIR} 1
            - sweep_resume_stale_fleet.stderr
            sweep ${FIXTURE} --axis protocol.copies=2,8 --seeds 1 --quiet
            --journal fleet_stale.j --workers 2 --resume)

# A corrupt/truncated journal tail is dropped with a warning and the
# affected points recomputed — recovery, not refusal. (7 garbage bytes so
# the byte count in the golden is deterministic.)
golden_case("sweep: seed a torn journal" ${RESUME_DIR} 1
            - -
            sweep ${FIXTURE} --axis protocol.copies=2,4 --seeds 1 --quiet
            --journal torn.j --fault throw@point=1:fires=99)
file(APPEND ${RESUME_DIR}/torn.j "garbage")
golden_case("sweep --resume corrupt tail" ${RESUME_DIR} 0
            - sweep_resume_corrupt_tail.stderr
            sweep ${FIXTURE} --axis protocol.copies=2,4 --seeds 1 --quiet
            --journal torn.j --resume)
