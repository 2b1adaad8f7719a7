"""Tests of the benchmark itself, on the tiny size of every workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


def tiny(workload: str, trace: int, *extra: str) -> tuple[dict, dict]:
    code, lines = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--size", "tiny", *extra)
    assert code == 0
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def traced(request):
    return request.param, tiny(request.param, 1)


def test_workloads_match_the_spec():
    assert WORKLOADS == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    detail, result = tiny(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["env"]["nproc"] >= 1 and detail["env"]["python"]


def test_traced_run_reports_every_layer_metric_and_agrees(traced):
    _, (detail, result) = traced
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert detail["digests_agree"] is True
    assert detail["missing"] == []
    plain, with_trace = detail["reps"]
    assert plain["digest"] == with_trace["digest"]


def test_self_times_fit_inside_their_spans(traced):
    _, (detail, _) = traced
    with open(detail["spans"]) as fh:
        spans = json.load(fh)["spans"]
    assert spans
    tracer = tracing.Tracer()
    tracer.spans = spans
    for (name, start, end, parent), (_, dur, own, _, _) in zip(spans, tracer.span_times()):
        assert 0 <= own <= dur
        if parent >= 0:
            _, pstart, pend, _ = spans[parent]
            assert pstart <= start <= end <= pend


@pytest.mark.parametrize("workload", WORKLOADS)
def test_negative_control_reports_failures(workload):
    _, result = tiny(workload, 0, "--negative-control")
    assert result["correct"] is False
    assert result["failed"] > 0


@pytest.mark.parametrize("seed", [1, 2])
def test_survey_runs_every_op_phase_by_phase(seed):
    with open(os.path.join(BENCH, "reference.json")) as fh:
        ops = json.load(fh)["survey_ops"]
    ordered = workloads.survey_ops(ops, "full", seed)
    assert sorted(op["id"] for op in ordered) == sorted(op["id"] for op in ops)
    kinds = [workloads.SURVEY_PHASES.index(op["kind"]) for op in ordered]
    assert kinds == sorted(kinds)


@pytest.mark.parametrize("n", [22, 23, 112, 1000])
def test_tail_has_ten_samples_beyond_it(n):
    xs = list(range(n))
    random.Random(n).shuffle(xs)
    tail = run.tail_value(xs)
    assert sum(1 for x in xs if x > tail) == 10
    assert tail >= sorted(xs)[n // 2]


@pytest.mark.parametrize("n", [1, 5, 11, 21])
def test_tail_of_few_samples_is_the_maximum(n):
    assert run.tail_value(list(range(n))) == n - 1


def test_element_parser_reads_what_bianchi_prints():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from bianchi.quadints import Field

    for d in (1, 2, 3, 7, 11):
        fld = Field.get(d)
        for a in range(-12, 13):
            for b in range(-12, 13):
                assert workloads.parse_ab(str(fld.elt(a, b))) == (a, b)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=str(tmp_path))
    assert code != 0
    assert lines == []
