"""Smoke tests: the example scripts run end-to-end.

The slower expedition/gallery examples are exercised with reduced
parameters (via their CLI flags) or skipped; the fast ones run as-is.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name, *args, timeout=240):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, (
        f"{name} failed:\n{result.stdout[-2000:]}\n{result.stderr[-2000:]}"
    )
    return result.stdout


class TestFastExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "Solvability queries" in out
        assert "impossibility run" in out

    def test_byzantine_config_rollout(self):
        out = run_example("byzantine_config_rollout.py")
        assert "unanimous honest version won" in out
        assert "bounded shortlist emerged" in out

    def test_shared_memory_shortlist(self):
        out = run_example("shared_memory_shortlist.py")
        assert "lone survivor decided" in out
        assert "unanimity among live workers" in out

    def test_region_explorer_panel(self):
        out = run_example(
            "region_explorer.py", "--model", "SM/CR", "--validity", "RV2",
            "--n", "10",
        )
        assert "SM/CR / RV2" in out

    def test_region_explorer_point(self):
        out = run_example(
            "region_explorer.py", "--point", "5", "4", "--n", "16",
        )
        assert "SC(k=5, t=4" in out


class TestHeavierExamples:
    def test_figure_gallery_small(self, tmp_path):
        run_example(
            "figure_gallery.py", "--n", "10", "--outdir", str(tmp_path),
        )
        assert (tmp_path / "fig2_mp-cr.svg").exists()
        assert (tmp_path / "summary.txt").exists()

    def test_verification_lab(self):
        out = run_example("verification_lab.py", timeout=400)
        assert "exhaustive             : True" in out
        assert "space-time diagram" in out
