"""Self-tests of the end-to-end benchmark (``python -m pytest benchmarks/e2e -q``).

They use the ``--smoke`` instances and finish in well under a minute.
"""

import copy
import json
import os
import pickle
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _emitted(capsys, trace):
    code = run.main([
        "--workload", "explore-por", "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    stamp = json.loads(lines[-2])["provenance"]
    assert stamp["seed"] == 1 and stamp["cpu_count"] >= 1
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


def test_emitted_metric_names_match_benchmark_json(capsys):
    spec = _benchmark_json()
    assert _emitted(capsys, 0) == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert _emitted(capsys, 1) == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for metric in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]:
        assert NAME.fullmatch(metric["name"]) and len(metric["name"]) <= 64


def test_self_time_excludes_nested_spans():
    now, cpu = [0.0], [0.0]
    trace = tracer.Tracer(clock=lambda: now[0], cpu_clock=lambda: cpu[0])

    def inner():
        now[0] += 2.0

    def failing():
        now[0] += 0.5
        raise ValueError

    def fanout():
        # Waits 5 s for workers while the parent itself burns 0.25 s.
        now[0] += 5.0
        cpu[0] += 0.25

    def outer():
        now[0] += 1.0
        wrapped_inner()
        now[0] += 3.0
        wrapped_inner()
        with pytest.raises(ValueError):
            wrapped_failing()
        wrapped_fanout()

    wrapped_inner = trace.wrap("runtime.kernel.step", inner)
    wrapped_failing = trace.wrap("core.problem.check", failing)
    wrapped_fanout = trace.wrap("harness.parallel.fanout", fanout)
    trace.wrap("harness.exhaustive.explore", outer)()
    assert trace.totals["harness.exhaustive.explore"] == [1, 4.0]
    assert trace.totals["runtime.kernel.step"] == [2, 4.0]
    assert trace.totals["core.problem.check"] == [1, 0.5]
    assert trace.totals["harness.parallel.fanout"] == [1, 0.25]


def test_speed_sampler_lap_trims_outliers_and_tops_up_short_intervals():
    sampler = worker.SpeedSampler()
    sampler.stop()
    sampler.ticks = [1.0] * 18 + [50.0, 0.001]
    assert sampler.lap() == 1.0
    assert sampler.ticks == []
    # An interval with no ticks gets MIN_TICKS of its own.
    assert sampler.lap() > 0


def test_install_wraps_and_restore_puts_back_every_original():
    originals = [
        (owner, attr, vars(owner)[attr])
        for entries in tracer.LAYERS.values()
        for module, path in entries
        for owner, attr in tracer._targets(module, path)
    ]
    trace = tracer.Tracer()
    trace.install()
    try:
        for owner, attr, original in originals:
            assert vars(owner)[attr].__wrapped__ is original
        from repro.harness import exhaustive

        # Pool workers receive the frontier worker pickled by name.
        assert pickle.loads(pickle.dumps(exhaustive._mp_frontier_worker)) is (
            exhaustive._mp_frontier_worker
        )
    finally:
        trace.restore()
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original


def _tamper_explore(expected):
    expected["reference_states"] -= 1


def _tamper_certify(expected):
    key = sorted(expected["verdicts"])[0]
    expected["verdicts"][key] = "REFUTED"


def _tamper_sweep(expected):
    point = expected["points"][sorted(expected["points"])[0]]
    point["histogram"]["1"] += 1


@pytest.mark.parametrize("name, tamper", [
    ("explore-por", _tamper_explore),
    ("explore-sym", _tamper_explore),
    ("certify-grid", _tamper_certify),
    ("sweep-scalar", _tamper_sweep),
    ("sweep-batch", _tamper_sweep),
])
def test_gate_passes_pinned_and_fails_tampered(name, tamper):
    output = workloads.prepare(name, workloads.DEFAULT_SEED, smoke=True)()
    expected = workloads.load_expected(smoke=True)
    attempted, failed, problems = workloads.check(
        name, output, expected, workloads.DEFAULT_SEED
    )
    assert attempted >= 1 and failed == 0, problems
    tampered = copy.deepcopy(expected)
    tamper(tampered[name])
    _, failed, problems = workloads.check(
        name, output, tampered, workloads.DEFAULT_SEED
    )
    assert failed >= 1 and problems


def test_repeats_with_different_outputs_fail():
    sample = {"attempted": 1, "failed": 0, "problems": [], "digest": "a"}
    assert run.judge([sample, dict(sample)])[1] == 0
    assert run.judge([sample, dict(sample, digest="b")])[1] == 1


PARENT = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]


@pytest.mark.parametrize("change, better, expected", [
    ([v * 0.8 for v in PARENT], "lower", "better"),        # clear win
    ([v * 1.2 for v in PARENT], "higher", "better"),
    ([v * 1.03 for v in PARENT], "lower", "unchanged"),    # within bound
    ([v * 1.2 for v in PARENT], "lower", "worse"),
    ([5.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 15.0, 16.0, 20.0],
     "lower", "unresolved"),                               # spread > bound
])
def test_compare_verdicts(change, better, expected):
    assert run.verdict(PARENT, change, 0.1, better)[0] == expected


def test_compare_exit_code(tmp_path):
    def result(scale, error_rate=0.0):
        samples = {m: [v * scale for v in PARENT] for m in run.E2E_UNITS}
        return {
            "provenance": run.provenance(0),
            "workloads": {"explore-por": {"samples": samples, "error_rate": error_rate}},
        }

    paths = {}
    for label, doc in [("parent", result(1.0)), ("same", result(1.0)),
                       ("slower", result(1.3)), ("errors", result(1.0, 0.5))]:
        paths[label] = str(tmp_path / f"{label}.json")
        with open(paths[label], "w") as handle:
            json.dump(doc, handle)
    assert run.compare(paths["parent"], paths["same"]) == 0
    assert run.compare(paths["parent"], paths["slower"]) == 1
    assert run.compare(paths["parent"], paths["errors"]) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "explore-por",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
