"""The claims-certification tier: ``repro.verify.certify_claims``.

Certification is the repo's end-to-end statement that the paper's
claimed-region table is *checked*, not transcribed: solvable claims come
back from clean exhaustive sweeps, impossibility claims come back with a
replayed counterexample.  These tests pin the report format, the verdict
semantics (including the lossy-store escalation invariant), witness
replayability, the fan-out of grid points under ``jobs`` (the report is
identical for every worker count), and the CLI baseline guard used by
the certify-smoke CI job.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import weakref

import pytest

import repro
import repro.harness.visited as visited_stores
import repro.verify.certify as certify_module
from repro.verify.certify import (
    REPORT_FORMAT,
    VERDICTS,
    CertificationReport,
    ClaimResult,
    PointResult,
    UnknownSpecs,
    certify_claims,
)
from repro.verify.witness import load_witness, verify_witness


@pytest.fixture(scope="module")
def trivial_report(tmp_path_factory):
    """Full n=3 grid of the trivial claim, witnesses saved.

    ``trivial@mp-cr`` decides own input: solvable iff k = n, impossible
    below, so one sweep exercises both the CONFIRMED_SOLVABLE and the
    COUNTEREXAMPLE_CONFIRMED paths.
    """
    witness_dir = tmp_path_factory.mktemp("witnesses")
    report = certify_claims(
        n=3, specs=["trivial@mp-cr"], witness_dir=witness_dir,
    )
    return report


class TestReportStructure:
    def test_one_claim_full_grid(self, trivial_report):
        assert len(trivial_report.claims) == 1
        claim = trivial_report.claims[0]
        assert claim.spec_name == "trivial@mp-cr"
        assert len(claim.points) == 9  # k in 1..3 x t in 0..2
        assert trivial_report.ok and claim.ok

    def test_verdicts_are_known(self, trivial_report):
        for point in trivial_report.claims[0].points:
            assert point.verdict in VERDICTS

    def test_both_certification_paths_exercised(self, trivial_report):
        counts = trivial_report.verdict_counts()
        assert counts["CONFIRMED_SOLVABLE"] > 0
        assert counts["COUNTEREXAMPLE_CONFIRMED"] > 0
        assert counts["REFUTED"] == 0
        assert counts["COUNTEREXAMPLE_MISSING"] == 0

    def test_verdict_counts_cover_every_point(self, trivial_report):
        counts = trivial_report.verdict_counts()
        assert sum(counts.values()) == len(trivial_report.claims[0].points)

    def test_inside_points_swept_clean(self, trivial_report):
        for point in trivial_report.claims[0].points:
            if point.inside:
                assert point.verdict == "CONFIRMED_SOLVABLE"
                assert point.explorations > 0
                assert point.states > 0

    def test_json_round_trip(self, trivial_report):
        blob = trivial_report.to_json()
        data = json.loads(blob)
        assert data == trivial_report.to_dict()
        assert data["format"] == REPORT_FORMAT
        assert data["n"] == 3
        assert data["ok"] is True
        assert data["total_states"] == trivial_report.total_states

    def test_save(self, trivial_report, tmp_path):
        path = tmp_path / "report.json"
        trivial_report.save(path)
        assert json.loads(path.read_text()) == trivial_report.to_dict()


class TestWitnesses:
    def test_counterexamples_replay_through_the_oracle_stack(
        self, trivial_report
    ):
        confirmed = [
            p for p in trivial_report.claims[0].points
            if p.verdict == "COUNTEREXAMPLE_CONFIRMED"
        ]
        assert confirmed
        for point in confirmed:
            assert point.witness_path, "witness_dir was set"
            witness = load_witness(point.witness_path)
            verdict = verify_witness(witness)
            assert verdict.deterministic
            assert verdict.violations
            assert verdict.demonstrates_expected


class TestLossyStores:
    def test_lossy_store_never_flips_an_impossibility_verdict(
        self, monkeypatch
    ):
        """With every digest colliding, the compact store cuts the whole
        search below the root and finds nothing; the escalation to the
        exact store must still deliver the counterexample."""
        monkeypatch.setattr(visited_stores, "_digest64", lambda value: 0)
        report = certify_claims(
            n=3, specs=["trivial@mp-cr"], ks=[1], ts=[1], visited="compact",
        )
        (point,) = report.claims[0].points
        assert point.escalated
        assert point.verdict == "COUNTEREXAMPLE_CONFIRMED"

    def test_compact_store_agrees_with_exact(self):
        exact = certify_claims(n=3, specs=["trivial@mp-cr"], ks=[3], ts=[1])
        compact = certify_claims(
            n=3, specs=["trivial@mp-cr"], ks=[3], ts=[1], visited="compact",
        )
        assert (
            [p.verdict for p in exact.claims[0].points]
            == [p.verdict for p in compact.claims[0].points]
        )


def _out_of_memory(*args, **kwargs):
    raise MemoryError("address space exhausted")


class TestAborted:
    """An exploration that raises settles its point as ``ABORTED``: never
    a region guard, never a refutation, and never a passing report."""

    @pytest.mark.parametrize("k, inside", [(3, True), (1, False)])
    def test_memory_error_aborts_the_point(self, monkeypatch, k, inside):
        monkeypatch.setattr(certify_module, "_explore_point", _out_of_memory)
        report = certify_claims(n=3, specs=["trivial@mp-cr"], ks=[k], ts=[1])
        (point,) = report.claims[0].points
        assert point.inside is inside
        assert point.verdict == "ABORTED"
        assert "MemoryError" in point.note
        assert "inputs=distinct" in point.note
        assert not report.ok
        assert report.verdict_counts()["ABORTED"] == 1

    def test_the_failed_search_is_freed_before_the_note(self, monkeypatch):
        """A search that ran out of memory holds it through the frames in
        its traceback and in those of the exceptions raised while it
        unwound; the note is built only after all of them are dropped."""
        held = []
        freed = []

        class Exhausted(MemoryError):
            def __str__(self):
                freed.append(held[0]() is None)
                return "address space exhausted"

        def exhausted_while_unwinding(*args):
            search = type("Search", (), {})()
            held.append(weakref.ref(search))
            try:
                raise MemoryError
            except MemoryError:
                raise Exhausted

        monkeypatch.setattr(
            certify_module, "_explore_point", exhausted_while_unwinding
        )
        report = certify_claims(n=3, specs=["trivial@mp-cr"], ks=[3], ts=[1])
        (point,) = report.claims[0].points
        assert point.verdict == "ABORTED"
        assert "address space exhausted" in point.note
        assert freed and all(freed)

    def test_other_points_settle_and_the_cli_fails(
        self, monkeypatch, tmp_path
    ):
        from repro.cli import main

        explore = certify_module._explore_point

        def exhausted_at_k1(task, *args):
            if task.k == 1:
                raise MemoryError
            return explore(task, *args)

        monkeypatch.setattr(certify_module, "_explore_point", exhausted_at_k1)
        out = tmp_path / "report.json"
        code = main([
            "certify", "--n", "3", "--specs", "trivial@mp-cr",
            "--ks", "1", "3", "--ts", "1", "--quiet", "--out", str(out),
        ])
        assert code == 1
        data = json.loads(out.read_text())
        assert data["ok"] is False
        verdicts = {
            (p["k"], p["t"]): p["verdict"] for p in data["claims"][0]["points"]
        }
        assert verdicts == {(1, 1): "ABORTED", (3, 1): "CONFIRMED_SOLVABLE"}

    @pytest.fixture
    def killed_at_k1(self, monkeypatch):
        """``_explore_point`` SIGKILLs its own worker at k=1; the forked
        workers inherit the patch."""
        explore = certify_module._explore_point
        parent = os.getpid()

        def explore_or_die(task, *args):
            if task.k == 1:
                assert os.getpid() != parent, "must run in a worker"
                os.kill(os.getpid(), signal.SIGKILL)
            return explore(task, *args)

        monkeypatch.setattr(certify_module, "_explore_point", explore_or_die)

    def test_dead_worker_aborts_only_its_point(self, killed_at_k1):
        report = certify_claims(
            n=3, specs=["trivial@mp-cr"], ks=[1, 3], ts=[1], jobs=2,
        )
        killed, solvable = report.claims[0].points
        assert (killed.k, killed.verdict) == (1, "ABORTED")
        assert "SIGKILL" in killed.note
        assert not killed.inside and killed.states == 0
        assert (solvable.k, solvable.verdict) == (3, "CONFIRMED_SOLVABLE")
        assert not report.ok
        assert not multiprocessing.active_children()

    def test_dead_worker_cli_fails_with_the_report_written(
        self, killed_at_k1, tmp_path
    ):
        from repro.cli import main

        out = tmp_path / "report.json"
        code = main([
            "certify", "--n", "3", "--specs", "trivial@mp-cr",
            "--ks", "1", "3", "--ts", "1", "--jobs", "2", "--quiet",
            "--out", str(out),
        ])
        assert code == 1
        points = json.loads(out.read_text())["claims"][0]["points"]
        assert [p["verdict"] for p in points] == [
            "ABORTED", "CONFIRMED_SOLVABLE",
        ]
        assert "SIGKILL" in points[0]["note"]

    def test_factory_refusal_outside_region_is_still_a_guard(self):
        report = certify_claims(
            n=3, specs=["protocol-c@mp-byz"], ks=[1], ts=[1],
        )
        (point,) = report.claims[0].points
        assert not point.inside
        assert point.verdict == "REGION_GUARDED"
        assert point.explorations == 0
        assert report.ok

    def test_factory_refusal_inside_region_refutes(self, monkeypatch):
        class Refusing(certify_module.SpecFactory):
            def __call__(self):
                raise ValueError("refuses")

        monkeypatch.setattr(certify_module, "SpecFactory", Refusing)
        report = certify_claims(n=3, specs=["trivial@mp-cr"], ks=[3], ts=[1])
        (point,) = report.claims[0].points
        assert point.inside
        assert point.verdict == "REFUTED"
        assert "factory failed inside region" in point.note


class TestReportModes:
    def test_early_exit_report(self):
        """Fanned-out points with early exit certify the same verdicts,
        and the report records the mode."""
        report = certify_claims(
            n=3, specs=["trivial@mp-cr"], ks=[1, 3], ts=[1],
            visited="compact", jobs=2, stop_on_violation=True,
        )
        assert report.stop_on_violation
        verdicts = {
            (p.k, p.t): p.verdict for p in report.claims[0].points
        }
        assert verdicts[(1, 1)] == "COUNTEREXAMPLE_CONFIRMED"
        assert verdicts[(3, 1)] == "CONFIRMED_SOLVABLE"
        data = report.to_dict()
        assert data["stop_on_violation"] is True
        for claim in data["claims"]:
            for point in claim["points"]:
                assert "symmetry_reason" in point

    def test_serial_report_records_modes_off(self, trivial_report):
        data = trivial_report.to_dict()
        assert data["stop_on_violation"] is False

    def test_symmetry_refusal_reason_surfaced(self):
        """When symmetry cannot engage, the report says why per point."""
        report = certify_claims(
            n=3, specs=["trivial@mp-cr"], ks=[3], ts=[0], symmetry=True,
        )
        (point,) = report.claims[0].points
        # the all-distinct-inputs instance always refuses (trivial group)
        assert "trivial symmetry group" in point.symmetry_reason


class TestSweepFilters:
    def test_sim_claims_skipped_by_default(self):
        # Empty grids keep this structural: the sweep visits every claim
        # but certifies zero points.
        report = certify_claims(n=3, ks=[], ts=[])
        assert any(
            name.startswith("sim-") for name in report.skipped_specs
        )
        assert all(
            not claim.spec_name.startswith("sim-")
            for claim in report.claims
        )
        # Naming a sim-* spec is how its claim gets certified.
        named = certify_claims(
            n=3, specs=["sim-chaudhuri@sm-cr"], ks=[], ts=[],
        )
        assert [c.spec_name for c in named.claims] == ["sim-chaudhuri@sm-cr"]
        assert "sim-chaudhuri@sm-cr" not in named.skipped_specs

    def test_grid_restriction(self):
        report = certify_claims(n=3, specs=["trivial@mp-cr"], ks=[3], ts=[0])
        (point,) = report.claims[0].points
        assert (point.k, point.t) == (3, 0)

    def test_progress_callback_fires_per_point(self):
        grid = [
            f"{spec} k={k} t={t}:"
            for spec in ("trivial@mp-cr", "trivial@sm-cr")
            for k in (1, 3) for t in (0, 1)
        ]
        for jobs in (None, 2):
            lines = []
            certify_claims(
                n=3, specs=["trivial@mp-cr", "trivial@sm-cr"],
                ks=[1, 3], ts=[0, 1], jobs=jobs, progress=lines.append,
            )
            assert len(lines) == len(grid), jobs
            for line, point in zip(lines, grid):
                assert line.startswith(point), (jobs, line)

    def test_unknown_spec_is_rejected_before_any_point(self, monkeypatch):
        def explode(task):
            raise AssertionError("a point ran")

        monkeypatch.setattr(certify_module, "_certify_point", explode)
        with pytest.raises(UnknownSpecs, match="nope@mp-cr") as info:
            certify_claims(n=3, specs=["trivial@mp-cr", "nope@mp-cr"])
        assert "trivial@mp-cr" not in str(info.value)
        with pytest.raises(ValueError, match="selects no claim"):
            certify_claims(n=3, specs=[])


class TestGridFanOut:
    """``jobs`` fans whole grid points out; nothing in the report moves."""

    SPECS = ["trivial@mp-cr", "trivial@sm-cr"]

    def test_jobs_report_equals_serial(self):
        serial = certify_claims(n=3, specs=self.SPECS)
        fanned = certify_claims(n=3, specs=self.SPECS, jobs=2)
        assert fanned.to_dict() == serial.to_dict()
        # Both kernels and the three verdict paths are on the grid.
        assert [c.spec_name for c in serial.claims] == self.SPECS
        counts = serial.verdict_counts()
        for verdict in (
            "SKIPPED", "COUNTEREXAMPLE_CONFIRMED", "CONFIRMED_SOLVABLE"
        ):
            assert counts[verdict] > 0, verdict

    def test_jobs_writes_the_serial_witness_files(self, tmp_path):
        def witnesses(jobs):
            directory = tmp_path / f"jobs-{jobs}"
            certify_claims(
                n=3, specs=self.SPECS, ks=[1, 2], ts=[1],
                witness_dir=directory, jobs=jobs,
            )
            return {
                path.name: path.read_text()
                for path in sorted(directory.iterdir())
            }

        serial = witnesses(None)
        assert serial
        assert witnesses(2) == serial

    @pytest.mark.parametrize("symmetry", [True, False])
    def test_symmetry_is_imported_before_the_workers_fork(self, symmetry):
        # A module the parent holds when it forks is one no worker
        # imports (and compiles) again; without symmetry none needs it.
        code = (
            "import sys\n"
            "from repro.verify.certify import certify_claims\n"
            "certify_claims(n=2, specs=['trivial@mp-cr'], jobs=2,\n"
            f"               symmetry={symmetry})\n"
            "print('repro.harness.symmetry' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120,
        ).stdout
        assert out.split() == [str(symmetry)]


def _fake_report():
    claim = ClaimResult(
        spec_name="fake@mp-cr", protocol="fake", model="mp-cr",
        validity="SV2", lemma="L0",
        points=[
            PointResult(
                k=2, t=1, inside=True, classification="POSSIBLE",
                verdict="CONFIRMED_SOLVABLE", states=100,
            ),
        ],
    )
    return CertificationReport(
        n=3, visited="exact", symmetry=True, claims=[claim],
    )


class TestBaselineGuard:
    def test_round_trip_passes(self):
        from repro.cli import _certify_baseline, _check_certify_baseline

        report = _fake_report()
        baseline = _certify_baseline(report)
        assert baseline["format"] == "repro-certify-baseline/1"
        assert baseline["points"]["fake@mp-cr:k=2:t=1"] == {
            "verdict": "CONFIRMED_SOLVABLE", "states": 100,
        }
        assert _check_certify_baseline(report, baseline) == []

    def test_verdict_change_fails(self):
        from repro.cli import _certify_baseline, _check_certify_baseline

        report = _fake_report()
        baseline = _certify_baseline(report)
        report.claims[0].points[0].verdict = "REFUTED"
        failures = _check_certify_baseline(report, baseline)
        assert failures and "verdict" in failures[0]

    def test_state_regression_fails(self):
        from repro.cli import _certify_baseline, _check_certify_baseline

        report = _fake_report()
        baseline = _certify_baseline(report)
        report.claims[0].points[0].states = 101
        failures = _check_certify_baseline(report, baseline)
        assert failures and "regressed" in failures[0]

    def test_fewer_states_is_fine(self):
        from repro.cli import _certify_baseline, _check_certify_baseline

        report = _fake_report()
        baseline = _certify_baseline(report)
        report.claims[0].points[0].states = 50
        assert _check_certify_baseline(report, baseline) == []

    def test_missing_point_fails(self):
        from repro.cli import _certify_baseline, _check_certify_baseline

        report = _fake_report()
        baseline = _certify_baseline(report)
        report.claims[0].points = []
        failures = _check_certify_baseline(report, baseline)
        assert failures and "missing" in failures[0]

    @pytest.mark.parametrize("field, value, line", [
        ("visited", "compact",
         "baseline recorded visited=exact, this run used compact"),
        ("symmetry", False,
         "baseline recorded symmetry=True, this run used False"),
        ("n", 4, "baseline recorded n=3, this run used 4"),
    ])
    def test_config_mismatch_is_one_line(self, field, value, line):
        from repro.cli import _certify_baseline, _check_certify_baseline

        report = _fake_report()
        baseline = _certify_baseline(report)
        setattr(report, field, value)
        # The points of another configuration are not compared.
        report.claims[0].points[0].states = 101
        assert _check_certify_baseline(report, baseline) == [line]

    def test_every_config_mismatch_reported(self):
        from repro.cli import _certify_baseline, _check_certify_baseline

        report = _fake_report()
        baseline = _certify_baseline(report)
        report.visited, report.symmetry = "compact", False
        failures = _check_certify_baseline(report, baseline)
        assert [line.split("=")[0] for line in failures] == [
            "baseline recorded visited", "baseline recorded symmetry",
        ]


class TestCli:
    def test_certify_exit_zero_and_report(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        code = main([
            "certify", "--n", "3", "--specs", "trivial@mp-cr",
            "--ks", "3", "--ts", "0", "--quiet", "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["format"] == REPORT_FORMAT
        assert "1 CONFIRMED_SOLVABLE" in capsys.readouterr().out

    def test_baseline_write_then_check(self, tmp_path, capsys):
        from repro.cli import main

        baseline = tmp_path / "baseline.json"
        argv = [
            "certify", "--n", "3", "--specs", "trivial@mp-cr",
            "--ks", "3", "--ts", "0", "--quiet",
        ]
        assert main(argv + ["--write-baseline", str(baseline)]) == 0
        assert main(argv + ["--check-baseline", str(baseline)]) == 0
        assert "baseline check passed" in capsys.readouterr().out

    def test_tampered_baseline_fails(self, tmp_path, capsys):
        from repro.cli import main

        baseline = tmp_path / "baseline.json"
        argv = [
            "certify", "--n", "3", "--specs", "trivial@mp-cr",
            "--ks", "3", "--ts", "0", "--quiet",
        ]
        assert main(argv + ["--write-baseline", str(baseline)]) == 0
        data = json.loads(baseline.read_text())
        key = "trivial@mp-cr:k=3:t=0"
        data["points"][key]["states"] = 1  # pretend it used to be cheaper
        baseline.write_text(json.dumps(data))
        assert main(argv + ["--check-baseline", str(baseline)]) == 1
        assert "regressed" in capsys.readouterr().out

    def test_compact_run_fails_an_exact_baseline(self, tmp_path, capsys):
        from repro.cli import main

        baseline = tmp_path / "baseline.json"
        argv = [
            "certify", "--n", "3", "--specs", "trivial@mp-cr",
            "--ks", "3", "--ts", "0", "--quiet",
        ]
        assert main(argv + ["--write-baseline", str(baseline)]) == 0
        assert main(argv + [
            "--visited", "compact", "--check-baseline", str(baseline),
        ]) == 1
        out = capsys.readouterr().out
        assert (
            "BASELINE: baseline recorded visited=exact, this run used compact"
            in out
        )
        assert "baseline check passed" not in out

    def test_unknown_spec_exit_two(self, capsys):
        from repro.cli import main

        assert main([
            "certify", "--n", "3", "--specs", "nope@mp-cr", "--quiet",
        ]) == 2
        captured = capsys.readouterr()
        assert "nope@mp-cr" in captured.err
        assert "certified" not in captured.out
