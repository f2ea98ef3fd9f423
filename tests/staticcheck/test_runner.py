"""Runner + CLI behaviour: exit codes, formats, baseline resolution,
and the repository snapshot (src/ must be clean against the committed
baseline)."""

import json
import pathlib
import textwrap

import pytest

from repro.cli import main
from repro.staticcheck import UsageError, run_check
from repro.staticcheck.runner import render, render_text, write_baseline

REPO = pathlib.Path(__file__).resolve().parents[2]

#: Seeded violations: one per DET error rule, in scope.
BAD_PROTOCOL = textwrap.dedent(
    """\
    import time
    import random


    def pick(candidates):
        stamp = time.time()
        jitter = random.random()
        chosen = min(set(candidates))
        return chosen, stamp, jitter
    """
)

CLEAN_PROTOCOL = textwrap.dedent(
    """\
    def pick(candidates, order_key):
        return min(candidates, key=order_key)
    """
)

#: Clean file-by-file; only the interprocedural pass sees the flow
#: (the helper materialises *its caller's* set, which no single-file
#: rule can know).
LAUNDERED_PROTOCOL = textwrap.dedent(
    """\
    def arbitrary(values):
        return list(values)[0]


    class P:
        def on_message(self, ctx, msg):
            pending = set(msg)
            ctx.send(0, arbitrary(pending))
    """
)


def write_fixture(tmp_path, source, name="fixture.py"):
    pkg = tmp_path / "protocols"
    pkg.mkdir(exist_ok=True)
    target = pkg / name
    target.write_text(source)
    return target


class TestRunCheck:
    def test_seeded_violations_fail(self, tmp_path):
        write_fixture(tmp_path, BAD_PROTOCOL)
        report = run_check(
            [str(tmp_path)], baseline_path=None, root=str(tmp_path)
        )
        assert report.exit_code == 1
        rules = {f.rule_id for f in report.new}
        assert {"DET001", "DET002", "DET003"} <= rules

    def test_clean_tree_passes(self, tmp_path):
        write_fixture(tmp_path, CLEAN_PROTOCOL)
        report = run_check(
            [str(tmp_path)], baseline_path=None, root=str(tmp_path)
        )
        assert report.exit_code == 0 and not report.new

    def test_strict_promotes_warnings(self, tmp_path):
        write_fixture(
            tmp_path,
            "class P:\n    shared = []\n",  # DET004: warning severity
        )
        relaxed = run_check(
            [str(tmp_path)], baseline_path=None, root=str(tmp_path)
        )
        strict = run_check(
            [str(tmp_path)], baseline_path=None, strict=True,
            root=str(tmp_path),
        )
        assert relaxed.exit_code == 0 and relaxed.new
        assert strict.exit_code == 1

    def test_strict_promotes_noqa_hygiene_warnings(self, tmp_path):
        write_fixture(
            tmp_path,
            "x = 1  # repro: noqa[DET999]\n",  # typo'd id: NOQA001
        )
        relaxed = run_check(
            [str(tmp_path)], baseline_path=None, root=str(tmp_path)
        )
        strict = run_check(
            [str(tmp_path)], baseline_path=None, strict=True,
            root=str(tmp_path),
        )
        assert relaxed.exit_code == 0
        assert [f.rule_id for f in relaxed.new] == ["NOQA001"]
        assert strict.exit_code == 1

    def test_missing_path_is_usage_error(self, tmp_path):
        with pytest.raises(UsageError):
            run_check([str(tmp_path / "nope")], baseline_path=None)

    def test_missing_explicit_baseline_is_usage_error(self, tmp_path):
        write_fixture(tmp_path, CLEAN_PROTOCOL)
        with pytest.raises(UsageError):
            run_check(
                [str(tmp_path)],
                baseline_path=str(tmp_path / "missing.json"),
                explicit_baseline=True,
            )

    def test_missing_default_baseline_is_tolerated(self, tmp_path):
        write_fixture(tmp_path, CLEAN_PROTOCOL)
        report = run_check(
            [str(tmp_path)],
            baseline_path=str(tmp_path / "staticcheck-baseline.json"),
            explicit_baseline=False,
            root=str(tmp_path),
        )
        assert report.exit_code == 0

    def test_write_baseline_then_rerun_is_clean(self, tmp_path):
        write_fixture(tmp_path, BAD_PROTOCOL)
        baseline_path = tmp_path / "baseline.json"
        first = run_check(
            [str(tmp_path)], baseline_path=None, root=str(tmp_path)
        )
        assert first.exit_code == 1
        write_baseline(first, str(baseline_path))
        second = run_check(
            [str(tmp_path)],
            baseline_path=str(baseline_path),
            explicit_baseline=True,
            root=str(tmp_path),
        )
        assert second.exit_code == 0
        assert len(second.accepted) == len(first.new)
        summary = render_text(second)
        assert "0 new errors" in summary

    def test_flow_pass_finds_laundered_nondeterminism(self, tmp_path):
        write_fixture(tmp_path, LAUNDERED_PROTOCOL)
        without = run_check(
            [str(tmp_path)], baseline_path=None, root=str(tmp_path)
        )
        assert without.exit_code == 0  # per-file rules see nothing
        with_flow = run_check(
            [str(tmp_path)], baseline_path=None, root=str(tmp_path),
            flow=True,
        )
        assert with_flow.exit_code == 1
        assert [f.rule_id for f in with_flow.new] == ["FLOW001"]
        assert with_flow.new[0].trace  # carries the full chain

    def test_flow_findings_are_baselinable(self, tmp_path):
        write_fixture(tmp_path, LAUNDERED_PROTOCOL)
        baseline_path = tmp_path / "baseline.json"
        first = run_check(
            [str(tmp_path)], baseline_path=None, root=str(tmp_path),
            flow=True,
        )
        write_baseline(first, str(baseline_path))
        second = run_check(
            [str(tmp_path)],
            baseline_path=str(baseline_path),
            explicit_baseline=True,
            root=str(tmp_path),
            flow=True,
        )
        assert second.exit_code == 0 and not second.new

    def test_render_formats(self, tmp_path):
        write_fixture(tmp_path, BAD_PROTOCOL)
        report = run_check(
            [str(tmp_path)], baseline_path=None, root=str(tmp_path)
        )
        as_json = json.loads(render(report, "json"))
        assert as_json["exit_code"] == 1 and as_json["new"]
        as_sarif = json.loads(render(report, "sarif"))
        assert as_sarif["version"] == "2.1.0"
        assert as_sarif["runs"][0]["results"]
        with pytest.raises(UsageError):
            render(report, "yaml")


class TestSnapshot:
    """The committed tree is clean against the committed baseline."""

    def test_src_has_no_new_findings(self):
        report = run_check(
            [str(REPO / "src")],
            baseline_path=str(REPO / "staticcheck-baseline.json"),
            explicit_baseline=True,
            strict=True,
            root=str(REPO),
        )
        assert report.exit_code == 0, "\n".join(
            f.render() for f in report.new
        )
        assert not report.stale, [e.to_json() for e in report.stale]
        assert report.result.files_checked > 50

    def test_baseline_entries_all_carry_reasons(self):
        raw = json.loads(
            (REPO / "staticcheck-baseline.json").read_text()
        )
        assert raw["format"] == "repro-staticcheck-baseline/2"
        assert raw["entries"], "baseline unexpectedly empty"
        for entry in raw["entries"]:
            assert entry["reason"].strip(), entry


class TestCli:
    def test_exit_one_on_seeded_violations(self, tmp_path, capsys):
        write_fixture(tmp_path, BAD_PROTOCOL)
        code = main(["staticcheck", str(tmp_path), "--no-baseline"])
        out = capsys.readouterr().out
        assert code == 1
        assert "DET001" in out and "new errors" in out

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        write_fixture(tmp_path, CLEAN_PROTOCOL)
        code = main(["staticcheck", str(tmp_path), "--no-baseline"])
        assert code == 0
        assert "0 new errors" in capsys.readouterr().out

    def test_exit_two_on_missing_baseline(self, tmp_path, capsys):
        write_fixture(tmp_path, CLEAN_PROTOCOL)
        code = main([
            "staticcheck", str(tmp_path),
            "--baseline", str(tmp_path / "missing.json"),
        ])
        assert code == 2
        assert "staticcheck:" in capsys.readouterr().err

    def test_sarif_to_file(self, tmp_path, capsys):
        write_fixture(tmp_path, BAD_PROTOCOL)
        out_path = tmp_path / "report.sarif"
        code = main([
            "staticcheck", str(tmp_path), "--no-baseline",
            "--format", "sarif", "--out", str(out_path),
        ])
        capsys.readouterr()
        assert code == 1  # findings still gate even when writing a file
        doc = json.loads(out_path.read_text())
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"]

    def test_flow_is_on_by_default_and_no_flow_disables(
        self, tmp_path, capsys
    ):
        write_fixture(tmp_path, LAUNDERED_PROTOCOL)
        code = main(["staticcheck", str(tmp_path), "--no-baseline"])
        out = capsys.readouterr().out
        assert code == 1 and "FLOW001" in out
        code = main([
            "staticcheck", str(tmp_path), "--no-baseline", "--no-flow",
        ])
        out = capsys.readouterr().out
        assert code == 0 and "FLOW001" not in out

    def test_flow_flag_is_rejected(self, tmp_path, capsys):
        # The flow pass is on by default; only --no-flow is an option.
        with pytest.raises(SystemExit) as exit_info:
            main(["staticcheck", str(tmp_path), "--flow"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --flow" in capsys.readouterr().err

    def test_explain_known_rule(self, capsys):
        code = main(["staticcheck", "--explain", "FLOW001"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FLOW001" in out and "source-to-sink" in out
        assert "noqa[FLOW001]" in out

    def test_explain_unknown_rule_is_usage_error(self, capsys):
        code = main(["staticcheck", "--explain", "NOPE"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown rule id" in err and "FLOW001" in err

    def test_write_baseline_round_trip(self, tmp_path, capsys):
        from repro.staticcheck.baseline import Baseline, save_baseline

        write_fixture(tmp_path, BAD_PROTOCOL)
        baseline_path = tmp_path / "baseline.json"
        save_baseline(Baseline(), str(baseline_path))  # start empty
        code = main([
            "staticcheck", str(tmp_path),
            "--baseline", str(baseline_path), "--write-baseline",
        ])
        out = capsys.readouterr().out
        assert code == 0 and "wrote" in out
        code = main([
            "staticcheck", str(tmp_path),
            "--baseline", str(baseline_path),
        ])
        out = capsys.readouterr().out
        assert code == 0 and "0 new errors" in out
