"""Planted faults: what the suite must catch, one fault at a time.

Each fault replaces one exact source snippet of one file, and so breaks one
rule that README states ("What a run does", "Command line", "File formats",
"Query service", "Tests").  Most are caught by comparing the engine with
``oracles.reference_run`` or the query service with
``oracles.reference_answer``; this list shows what those two references
catch, and names the other tests where they cannot catch a fault (the
references call ``taskmon.diagnose`` and never mark a machine under
maintenance).

    python tests/planted.py

first runs every named test on an unplanted copy of the tree, then, for each
fault, copies the tree to a temporary directory, plants that fault and runs
its named tests in a fresh process with the copy's ``src`` first.  It exits
1 if a named test fails unplanted, a snippet does not occur exactly once, or
a fault's named tests all pass.  Each child process loads a hypothesis
profile without the shrink phase, under a pinned seed: a failing property
reports the first failing example it drew instead of shrinking it, which
changes only how a failure is reported, not whether it is found.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
HYPOTHESIS_SEED = 0

# run in each child: the profile is loaded before pytest imports a test
# module, so every @settings there inherits its phases
CHILD = """
import os, sys
from hypothesis import Phase, settings
settings.register_profile("planted", phases=[Phase.explicit, Phase.reuse, Phase.generate])
settings.load_profile("planted")
import pytest, stratus
if not stratus.__file__.startswith(os.getcwd()):
    sys.exit(f"stratus imported from {stratus.__file__}, not from the copy")
sys.exit(pytest.main(sys.argv[1:]))
"""


class Fault(NamedTuple):
    file: str
    old: str
    new: str
    rule: str
    tests: tuple[str, ...]


ENGINE = "tests/test_sim.py::test_the_engine_equals_the_reference_run"
# tables of hand-picked cases: named first, a row that a fault breaks fails
# in about a second, and -x stops the run before ENGINE draws its examples
ENGINE_TABLE = "tests/test_sim.py::test_a_hand_picked_run_equals_the_reference_and_its_outcome"
FIRST_FIT = "tests/test_resman.py::test_first_fit_script"
READINESS = "tests/test_workflow.py::test_readiness_and_status_of_a_run"
ARTIFACTS = "tests/test_sim.py::test_artifacts_change_only_with_what_shapes_them"
PINNED = "tests/test_golden.py::test_every_pinned_input_equals_the_reference_run"
ANSWER = "tests/test_service.py::test_every_answer_equals_the_reference_answer"
GOLDEN_ANSWER = "tests/test_golden_service.py::test_responses_equal_the_reference_answer"
SEGMENTED = "tests/test_resman.py::test_segmented_queue_matches_oracle_across_passes"
CRITERION_6 = "tests/test_acceptance.py::test_criterion_06_capacity_safety_against_oracle"
CRITERION_7 = "tests/test_acceptance.py::test_criterion_07_dependency_order_and_poisoning"
SCALED = "tests/test_sim.py::test_trace_records_match_the_scaled_formula"
FUZZ = "tests/test_parser_fuzz.py::"
WORKFLOW_LINE = FUZZ + "test_a_workflow_refusal_is_reported_at_exactly_the_line_that_gave_the_entry"
MATRIX_ROW = FUZZ + "test_a_matrix_refusal_is_reported_at_the_last_row_that_set_the_entry"
PARSE_WORKFLOW = "tests/test_workflow.py::test_parse_workflow_refuses"
STATUS_ANYWHERE = "tests/test_cli.py::test_status_and_report_read_the_run_directory_from_anywhere"
DAMAGED = "tests/test_cli.py::test_a_damaged_history_entry_or_report_is_refused"

FAULTS = [
    # -- What a run does: the engine against oracles.reference_run --
    Fault(
        "src/stratus/resman.py",
        "cpu <= cap[0] - held[0] and mem <= cap[1] - held[1] and disk <= cap[2] - held[2]",
        "cpu <= cap[0] - held[0] and mem <= cap[1] - held[1]",
        "a pass starts a task only where it has room on every dimension: cpu, memory and disk",
        (FIRST_FIT, ENGINE, CRITERION_6),
    ),
    Fault(
        "src/stratus/resman.py",
        "            if descriptor.status is MachineStatus.HEALTHY:",
        "            if descriptor.status is not MachineStatus.MAINTENANCE:",
        "a pass starts tasks on healthy machines only",
        (FIRST_FIT, ENGINE, SEGMENTED, CRITERION_6),
    ),
    Fault(
        "src/stratus/resman.py",
        "            if descriptor.status is MachineStatus.HEALTHY:",
        "            if descriptor.status is not MachineStatus.UNHEALTHY:",
        "a machine under maintenance is not healthy and takes no task",
        (FIRST_FIT, SEGMENTED, CRITERION_6),
    ),
    Fault(
        "src/stratus/resman.py",
        "        for machine_id in self.registry.machine_ids():\n"
        "            descriptor = self.registry.descriptor(machine_id)",
        "        for machine_id in reversed(self.registry.machine_ids()):\n"
        "            descriptor = self.registry.descriptor(machine_id)",
        "a pass tries the healthy machines in id order",
        (ENGINE_TABLE, FIRST_FIT, ENGINE, SEGMENTED, CRITERION_6),
    ),
    Fault(
        "src/stratus/resman.py",
        "        for segment in self._segments:",
        "        for segment in reversed(self._segments):",
        "a pass walks the queue in FIFO order",
        (ENGINE_TABLE, FIRST_FIT, ENGINE, SEGMENTED, CRITERION_6),
    ),
    Fault(
        "src/stratus/resman.py",
        "            k = first_fit.get(need, 0)",
        "            k = len(healthy) if remaining else first_fit.get(need, 0)",
        "a pass walks the whole queue: a task that fits nowhere blocks none behind it",
        (ENGINE_TABLE, FIRST_FIT, ENGINE, SEGMENTED, CRITERION_6),
    ),
    Fault(
        "src/stratus/resman.py",
        "(held[0] - need[0], held[1] - need[1], held[2] - need[2])",
        "(held[0] - need[0], held[1] - need[1], held[2])",
        "a finished task returns its whole reservation, disk included",
        (ENGINE_TABLE, ENGINE, CRITERION_6),
    ),
    Fault(
        "src/stratus/sim.py",
        'ready = sorted(self._newly_ready, key=attrgetter("position"))',
        'ready = sorted(self._newly_ready, key=attrgetter("definition.name"))',
        "a pass queues the newly ready instances in spec order, then index order",
        (ENGINE_TABLE, ENGINE, PINNED),
    ),
    Fault(
        "src/stratus/workflow.py",
        "        if inst.state is not TaskState.SUCCEEDED:\n"
        "            succeeded_by_def[inst.definition] = False",
        "        succeeded_by_def[inst.definition] = inst.state is TaskState.SUCCEEDED",
        "ready_tasks: a definition is ready once every instance of each predecessor succeeded",
        (ENGINE_TABLE, READINESS, ENGINE, CRITERION_7),
    ),
    Fault(
        "src/stratus/workflow.py",
        "        if inst.state is not TaskState.SUCCEEDED:",
        "        if not inst.state.terminal:",
        "ready_tasks: a failed predecessor readies nothing",
        (ENGINE_TABLE, READINESS, ENGINE, CRITERION_7),
    ),
    Fault(
        "src/stratus/sim.py",
        "            if all(self._rows[p].remaining == 0 for p in predecessors[successor]):",
        "            if any(self._rows[p].remaining == 0 for p in predecessors[successor]):",
        "the engine readies a definition once all its predecessors succeeded",
        (ENGINE_TABLE, ENGINE, CRITERION_7),
    ),
    Fault(
        "src/stratus/sim.py",
        "        failure_draw = draw()\n        pcache_draw = draw()",
        "        pcache_draw = draw()\n        failure_draw = draw()",
        "an instance draws runtime, failure and page-cache ratio from its own stream, in that order",
        (ENGINE_TABLE, ENGINE,
         "tests/test_sim.py::test_metric_plan_matches_the_reference_formula"),
    ),
    Fault(
        "src/stratus/sim.py",
        "self._rng.seed(_stream_seed(self.result.seed, task_id))",
        "self._rng.seed(_stream_seed(0, task_id))",
        "an instance's stream is seeded from the run's seed and its own id",
        (ENGINE_TABLE, ENGINE),
    ),
    Fault(
        "src/stratus/sim.py",
        "failure_draw < plan.failure_probability",
        "failure_draw > plan.failure_probability",
        "an instance fails on its own when its failure draw is below the model's probability",
        (ENGINE_TABLE, ENGINE),
    ),
    Fault(
        "src/stratus/sim.py",
        "next((f for f in faults if t_ms >= f.at_ms), None)",
        "next((f for f in reversed(faults) if t_ms >= f.at_ms), None)",
        "of the task faults armed on an instance, the first one its start has reached fires",
        (ENGINE_TABLE, ENGINE),
    ),
    Fault(
        "src/stratus/sim.py",
        "            rss_bytes = requested.memory_bytes + max(1, requested.memory_bytes // 4)",
        "            rss_bytes = requested.memory_bytes",
        "an OOM forces the footprint a quarter over the memory request",
        (ENGINE_TABLE, ENGINE, PINNED),
    ),
    Fault(
        "src/stratus/sim.py",
        "            exit_code = EXIT_TIMEOUT",
        "            exit_code = exit_code or EXIT_TIMEOUT",
        "a timeout exits 124 whatever the exit would have been",
        (ENGINE_TABLE, ENGINE),
    ),
    Fault(
        "src/stratus/sim.py",
        "ratio = duration / planned",
        "ratio = duration / (planned + 1)",
        "a record cut short scales its counters by the share of its drawn runtime that it ran",
        (ENGINE_TABLE, ENGINE, PINNED, SCALED),
    ),
    Fault(
        "src/stratus/sim.py",
        "    if duration == planned:",
        "    if duration < 0:",
        "a record that ran its whole drawn runtime keeps its counters as drawn",
        ("tests/test_sim.py::test_a_full_run_keeps_its_drawn_counters", SCALED),
    ),
    Fault(
        "src/stratus/sim.py",
        "        self._finish_instance(t_ms, execution, execution.exit_code)\n"
        "        self._pump(t_ms)",
        "        self._finish_instance(t_ms, execution, execution.exit_code)\n"
        "        if execution.exit_code == 0:\n"
        "            self._pump(t_ms)",
        "a completion, a failure too, runs a scheduler pass",
        (ENGINE_TABLE, ENGINE),
    ),
    Fault(
        "src/stratus/sim.py",
        "        for task_id in self.rm.running_on(machine_id):",
        "        for task_id in reversed(self.rm.running_on(machine_id)):",
        "a machine fault ends the instances running on it in task-id order",
        (ENGINE_TABLE, ENGINE, PINNED),
    ),
    Fault(
        "src/stratus/sim.py",
        "        self._engine_thread = threading.get_ident()",
        "        self._engine_thread = None",
        "while a run is live, a fault from any thread but its own is refused",
        ("tests/test_sim.py::test_a_live_run_refuses_a_fault_from_another_thread",),
    ),
    Fault(
        "src/stratus/sim.py",
        "                successor.poisoned = True\n                frontier.append(successor)\n",
        "                successor.poisoned = True\n",
        "a failure poisons every transitively downstream definition",
        (ENGINE_TABLE, ENGINE, CRITERION_7),
    ),
    Fault(
        "src/stratus/sim.py",
        "        if self._executions or self._pending_machine_events > 0:",
        "        if self._executions:",
        "sample ticks come while an instance runs or a machine fault is still to fire",
        (ENGINE_TABLE, ENGINE),
    ),
    Fault(
        "src/stratus/sim.py",
        "heapq.heappush(self._events, (t_ms, next(self._seq), handler, payload))",
        "heapq.heappush(self._events, (t_ms, -next(self._seq), handler, payload))",
        "events in one millisecond run in the order they were scheduled",
        (ENGINE_TABLE, ENGINE, PINNED),
    ),
    Fault(
        "src/stratus/sim.py",
        'f"input_count={result.input_count} topology=',
        'f"run_id={self.run_id} input_count={result.input_count} topology=',
        "a run's bytes do not depend on its run id",
        (ENGINE_TABLE, ARTIFACTS, ENGINE,),
    ),
    Fault(
        "src/stratus/sim.py",
        'f"input_count={result.input_count} topology=',
        'f"at={self.run.submission_ms} input_count={result.input_count} topology=',
        "a run's bytes do not depend on its submission time",
        (ENGINE_TABLE, ARTIFACTS, ENGINE,),
    ),
    Fault(
        "src/stratus/sim.py",
        "failed = any(row.remaining for row in self._rows.values())",
        "failed = any(row.poisoned for row in self._rows.values())",
        "run_completed reads final=failed unless every instance succeeded",
        (ENGINE_TABLE, ENGINE, CRITERION_7),
    ),
    Fault(
        "src/stratus/sim.py",
        "        self._events.clear()",
        "        pass",
        "nothing happens after run_completed",
        (ENGINE_TABLE, ENGINE, PINNED),
    ),
    Fault(
        "src/stratus/workflow.py",
        "finished=sum(1 for i in run.instances if i.state is TaskState.SUCCEEDED)",
        "finished=sum(1 for i in run.instances if i.state.terminal)",
        "workflow_status: finished counts the succeeded instances",
        (ENGINE_TABLE, READINESS, ENGINE,),
    ),
    # -- File formats: the parsers' own tests --
    Fault(
        "src/stratus/textfmt.py",
        "    first = first_lines.setdefault(directive, line)",
        "    first = first_lines[directive] = line",
        "a directive that sets one value of its file may appear once, not override silently",
        (FUZZ + "test_a_repeated_setting_is_refused_at_its_second_line",),
    ),
    Fault(
        "src/stratus/workflow.py",
        "            i = next(i for i, n in enumerate(names) if n in names[:i])",
        "            i = names.index(next(n for i, n in enumerate(names) if n in names[:i]))",
        "a duplicate task is refused at its second task line",
        (PARSE_WORKFLOW, WORKFLOW_LINE,
         FUZZ + "test_a_line_that_breaks_a_rule_is_the_formats_line_error"),
    ),
    Fault(
        "src/stratus/workflow.py",
        '                    raise UnknownTaskError(name, ("edge", i))',
        '                    raise UnknownTaskError(name, ("edge", len(self.edges) - 1))',
        "a dangling edge is refused at the first edge that names the unknown task",
        (PARSE_WORKFLOW, WORKFLOW_LINE),
    ),
    Fault(
        "src/stratus/workflow.py",
        '        keyed = {"workflow": self.workflow_id,',
        '        keyed = {None: self.workflow_id,',
        "an invalid workflow id is refused at the header line that gave it",
        (PARSE_WORKFLOW, WORKFLOW_LINE),
    ),
    Fault(
        "src/stratus/blueprint.py",
        "            rows[feature.value] = lineno",
        "            rows.setdefault(feature.value, lineno)",
        "a matrix refusal is reported at the last row that set the entry",
        ("tests/test_blueprint.py::test_parse_overrides_refuses", MATRIX_ROW),
    ),
    Fault(
        "src/stratus/sim.py",
        '    for directive in ("workflow", "cluster"):',
        '    for directive in ("workflow",):',
        "a scenario without its workflow or cluster line is a whole-file error",
        (FUZZ + "test_a_scenario_without_its_workflow_or_cluster_line_is_a_whole_file_error",),
    ),
    Fault(
        "src/stratus/textfmt.py",
        "        if str(value) != text:",
        '        if str(value) != text.removeprefix("+"):',
        "the event log and the trace file take only the integer spelling str() writes",
        (FUZZ + "test_event_log_and_trace_accept_only_the_integers_their_writers_emit",
         FUZZ + "test_an_event_log_line_is_accepted_iff_it_re_renders_to_its_own_bytes",
         FUZZ + "test_a_trace_line_is_accepted_iff_it_re_renders_to_its_own_bytes"),
    ),
    Fault(
        "src/stratus/textfmt.py",
        '    if text[:1] in ("+", "-") and text[1:].isdigit() and text.isascii():',
        '    if text[:1] == "-" and text[1:].isdigit() and text.isascii():',
        "the workflow, cluster and scenario formats take an optional sign",
        (FUZZ + "test_input_formats_accept_a_sign_and_leading_zeros",),
    ),
    Fault(
        "src/stratus/textfmt.py",
        "    if text.isdigit() and text.isascii():",
        "    if text.isdigit():",
        "an integer field of an input format is ASCII digits only",
        (FUZZ + "test_input_formats_accept_only_ascii_integers",),
    ),
    Fault(
        "src/stratus/textfmt.py",
        '    return name.strip().lower() if name.isascii() else ""',
        "    return name.strip().casefold()",
        "a wire name matches in any ASCII case, and a non-ASCII name is not folded",
        (FUZZ + "test_a_wire_name_is_accepted_iff_it_is_ascii_and_folds_to_a_spelling",
         FUZZ + "test_lookalike_wire_names_are_line_errors_in_the_text_formats"),
    ),
    # -- Query service: the service against oracles.reference_answer --
    Fault(
        "src/stratus/service.py",
        "        for result in reversed(results):",
        "        for result in results:",
        "a task subject is looked up in the newest registered run that holds it",
        (ANSWER,),
    ),
    Fault(
        "src/stratus/service.py",
        "m.registry.available_resources(m.machine_id, t_to)",
        "m.registry.available_resources(m.machine_id, t_from)",
        "available_resources reads the last sample at or before to",
        (ANSWER, GOLDEN_ANSWER),
    ),
    Fault(
        "src/stratus/machine.py",
        "series[start:bisect_right(series, t_to, lo=start, key=_T_MS)]",
        "series[start:bisect_left(series, t_to, lo=start, key=_T_MS)]",
        "a sample window [from, to] is closed at both ends",
        (ANSWER, GOLDEN_ANSWER),
    ),
    Fault(
        "src/stratus/blueprint.py",
        "    if disjoint and min(permitted) is LayerId.WORKFLOW:",
        "    if disjoint and min(permitted) is not LayerId.RESOURCE_MANAGER:",
        "the disjoint rule denies the resource manager workflow-owned features only",
        (ANSWER, "tests/test_acceptance.py::test_criterion_01_access_matrix_conformance"),
    ),
    Fault(
        "src/stratus/service.py",
        "    if found is None:\n        raise UnknownTaskError(task_id)",
        "    if found is None:\n"
        "        raise _HTTPError(404, f\"no {missing or 'task'} yet for {task_id!r}\")",
        "an unknown task answers 404 unknown task before any missing trace record",
        (ANSWER,),
    ),
    Fault(
        "src/stratus/sim.py",
        '            return kind in ("instance_queued", "instance_started")',
        '            return kind == "instance_queued"',
        "a start writes a progress record",
        (ENGINE_TABLE, ANSWER,),
    ),
    # -- Command line: status and report read the stored run's report --
    Fault(
        "src/stratus/cli.py",
        "report.succeeded, report.total, report.failed",
        "report.succeeded, report.total, report.total - report.succeeded",
        "status counts the failed instances, not every instance that did not succeed",
        (STATUS_ANYWHERE,),
    ),
    Fault(
        "src/stratus/cli.py",
        "    for summary, run_dir in reversed(store.load_all()):",
        "    for summary, run_dir in store.load_all():",
        "status and report read the newest history entry with the run id",
        ("tests/test_cli.py::test_a_reused_run_id_is_refused_and_status_names_the_newest_entry",),
    ),
    Fault(
        "src/stratus/cli.py",
        '                raise ValueError(f"{path}: bad report: {exc}") from None',
        "                raise",
        "a report.json that is cut short or lacks a key is refused naming the file",
        (DAMAGED,),
    ),
    # -- File formats: the run directory's four facts and one view --
    Fault(
        "src/stratus/cli.py",
        '    _write_json(run_dir / "machines.json", [',
        "    len([",
        "a run directory holds the event log, the trace, run.json, machines.json and report.json",
        (
            "tests/test_cli.py::test_run_scenario_writes_all_artifacts",
            "tests/test_golden.py::test_cli_artifact_bytes_match_golden_digests",
        ),
    ),
    # -- File formats: the run history, whose rules only its own tests state --
    Fault(
        "src/stratus/store.py",
        "        matches = [s for s, _ in reversed(self.load_all()) if s.workflow_id == workflow_id]",
        "        matches = [s for s, _ in self.load_all() if s.workflow_id == workflow_id]",
        "of equal submissions, the later appended run is listed first",
        (
            "tests/test_store.py::test_previous_executions_ordering_matches_sort_oracle",
            "tests/test_store.py::test_summaries_follow_appends_from_any_writer",
        ),
    ),
    Fault(
        "src/stratus/store.py",
        "                except _BAD_RECORD:\n                    fh.truncate(start)",
        "                except _BAD_RECORD:\n                    line = b\"\\n\" + line",
        "an append cuts off a torn final line",
        (
            "tests/test_store.py::test_a_torn_or_whole_record_final_line_is_skipped_then_cut_off",
            "tests/test_store.py::test_summaries_skip_a_torn_tail_until_the_next_append",
        ),
    ),
    Fault(
        "src/stratus/store.py",
        "keys[field.name] for field in fields(RunSummary)})\n"
        "    RunState(summary.final_state)  # a state no run ends in is a bad record\n"
        '    run_dir = keys["run_dir"]',
        "keys.get(field.name, 0) for field in fields(RunSummary)})\n"
        "    RunState(summary.final_state)  # a state no run ends in is a bad record\n"
        '    run_dir = keys.get("run_dir")',
        "a line that lacks a summary field, such as a whole-record line, is a bad record",
        (
            "tests/test_store.py::test_a_corrupt_interior_line_raises_with_its_position",
            "tests/test_store.py::test_a_torn_or_whole_record_final_line_is_skipped_then_cut_off",
        ),
    ),
    # -- taskmon.diagnose, which both references call, so only its own tests catch --
    Fault(
        "src/stratus/taskmon.py",
        "    if record.duration_ms >= requested.max_runtime_ms:",
        "    if record.duration_ms > requested.max_runtime_ms:",
        "a failure that ran up to its limit is diagnosed as a timeout",
        ("tests/test_taskmon.py::test_diagnose_verdict",),
    ),
    # -- each reference takes no code from what it checks --
    Fault(
        "tests/oracles.py",
        "from stratus.taskmon import (",
        "from stratus.resman import ResourceManager\nfrom stratus.taskmon import (",
        "reference_run shares no scheduling code with stratus.sim or stratus.resman",
        ("tests/test_sim.py::test_the_reference_takes_only_data_from_the_engine",),
    ),
    Fault(
        "tests/oracles.py",
        "from stratus.blueprint import LayerId, TopologyMode, UnknownLayerError",
        "from stratus.blueprint import LayerId, TopologyMode, UnknownLayerError, authorize",
        "reference_answer takes nothing from stratus.service or blueprint.authorize",
        ("tests/test_service.py::test_the_reference_answer_takes_no_service_code",),
    ),
]


def copy_tree(dest: Path) -> None:
    shutil.copytree(
        ROOT, dest, ignore=shutil.ignore_patterns(".git", ".hypothesis", ".bench_build", "__pycache__")
    )


def plant(tree: Path, fault: Fault) -> None:
    path = tree / fault.file
    text = path.read_text()
    if text.count(fault.old) != 1:
        raise SystemExit(f"{fault.file}: the snippet of {fault.rule!r} does not occur exactly once")
    path.write_text(text.replace(fault.old, fault.new))


def run_tests(tree: Path, tests) -> tuple[int, list[str], str]:
    """Run ``tests`` in ``tree`` in a fresh process: its exit code, the
    tests that failed or errored, and its output."""
    paths = [str(tree / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    child = subprocess.run(
        [sys.executable, "-c", CHILD, "-q", "-x", "-rfE", f"--hypothesis-seed={HYPOTHESIS_SEED}",
         *tests],
        cwd=tree, env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
        capture_output=True, text=True,
    )
    failed = [
        line.split(" ", 1)[1].split(" - ")[0] for line in child.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    return child.returncode, failed, child.stdout + child.stderr


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp).resolve()  # the child compares it with its working directory
        tree = tmp / "unplanted"
        copy_tree(tree)
        named = sorted({test for fault in FAULTS for test in fault.tests})
        code, failed, output = run_tests(tree, named)
        if code != 0:
            print(output)
            print(f"unplanted: the named tests must pass, and {failed or 'the run'} did not")
            return 1
        print(f"unplanted: {len(named)} named tests pass")
        missed = 0
        for number, fault in enumerate(FAULTS, 1):
            tree = tmp / f"fault-{number}"
            copy_tree(tree)
            plant(tree, fault)
            started = time.monotonic()
            # exit code 1: tests ran and some failed; a planted fault that
            # breaks collection is not a fault the tests caught
            code, failed, output = run_tests(tree, fault.tests)
            caught = code == 1 and bool(failed)
            missed += not caught
            print(f"{number:2d} {'caught' if caught else 'MISSED'} "
                  f"({time.monotonic() - started:.1f} s) {fault.file}: {fault.rule}")
            print("   " + (", ".join(failed) if caught else output[-2000:]))
            shutil.rmtree(tree)
        print(f"{len(FAULTS) - missed} of {len(FAULTS)} planted faults caught")
        return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
