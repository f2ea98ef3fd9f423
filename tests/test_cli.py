"""Tests for the command-line interface."""

import os
import re
import subprocess
import sys

import pytest

import repro
from repro.cli import main


class TestClassify:
    def test_possible_point(self, capsys):
        code = main([
            "classify", "--model", "MP/CR", "--validity", "RV1",
            "--n", "64", "--k", "5", "--t", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "possible" in out
        assert "Lemma 3.1" in out

    def test_note_printed_for_degenerate(self, capsys):
        main([
            "classify", "--model", "MP/CR", "--validity", "RV1",
            "--n", "8", "--k", "8", "--t", "3",
        ])
        out = capsys.readouterr().out
        assert "note:" in out


class TestPanel:
    def test_text_panel(self, capsys):
        assert main([
            "panel", "--model", "SM/CR", "--validity", "RV2", "--n", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "SM/CR / RV2" in out
        assert "o" in out

    def test_csv_panel(self, capsys):
        assert main([
            "panel", "--model", "MP/CR", "--validity", "RV1",
            "--n", "8", "--csv",
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("k,max_possible_t")


class TestFigure:
    def test_small_figure(self, capsys):
        assert main(["figure", "--model", "MP/Byz", "--n", "12"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out
        assert out.count("n = 12") >= 6


class TestLattice:
    def test_renders_and_verifies(self, capsys):
        assert main(["lattice"]) == 0
        out = capsys.readouterr().out
        assert "SV1" in out and "OK" in out


class TestRun:
    def test_successful_run(self, capsys):
        assert main([
            "run", "chaudhuri@mp-cr", "--n", "5", "--k", "3", "--t", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "decisions:" in out and "OK" in out

    def test_explicit_inputs(self, capsys):
        assert main([
            "run", "protocol-a@mp-cr", "--n", "3", "--k", "2", "--t", "1",
            "--inputs", "x", "x", "x",
        ]) == 0
        out = capsys.readouterr().out
        assert "'x'" in out

    def test_unknown_spec_raises(self):
        with pytest.raises(ValueError):
            main(["run", "nope", "--n", "3", "--k", "2", "--t", "1"])


class TestSweep:
    def test_clean_sweep_exit_zero(self, capsys):
        assert main([
            "sweep", "protocol-e@sm-cr", "--n", "5", "--k", "2", "--t", "5",
            "--runs", "6",
        ]) == 0
        assert "clean" in capsys.readouterr().out

    @pytest.mark.parametrize("engine", ["auto"])
    def test_batch_sweep_of_no_runs_is_clean(self, engine, capsys):
        argv = ["sweep", "protocol-a@mp-cr", "--n", "6", "--k", "3",
                "--t", "2", "--runs", "0"]
        assert main(argv) == 0
        scalar = capsys.readouterr().out.splitlines()
        assert main(argv + ["--engine", engine]) == 0
        batch = capsys.readouterr().out.splitlines()
        assert batch[0] == scalar[0]
        assert "0 runs, clean" in batch[0]
        assert batch[1] == "  engine batch: vectorized batch of 0 runs"

    def test_closed_stdout_ends_quietly(self):
        # `repro sweep ... | head -1`, with head gone before a write.
        # The reader closes before the first line: closing after it
        # races with the second print and often misses it.
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        try:
            done = subprocess.run(
                [sys.executable, "-u", "-m", "repro", "sweep",
                 "chaudhuri@mp-cr", "--n", "5", "--k", "3", "--t", "2",
                 "--runs", "10", "--jobs", "1"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": src}, timeout=120,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in done.stderr, done.stderr
        assert done.returncode == 1


class TestAttack:
    def test_attack_inside_region(self, capsys):
        assert main([
            "attack", "chaudhuri@mp-cr", "--n", "5", "--k", "3", "--t", "2",
            "--attempts", "15",
        ]) == 0
        assert "no violation" in capsys.readouterr().out


class TestConstruct:
    def test_single_lemma(self, capsys):
        assert main(["construct", "--lemma", "Lemma 3.5"]) == 0
        out = capsys.readouterr().out
        assert "[ok]" in out and "Lemma 3.5" in out


class TestProtocols:
    def test_lists_registry(self, capsys):
        assert main(["protocols"]) == 0
        out = capsys.readouterr().out
        assert "chaudhuri@mp-cr" in out
        assert "protocol-f@sm-byz" in out


class TestPaperAndSummary:
    def test_paper_index(self, capsys):
        assert main(["paper"]) == 0
        out = capsys.readouterr().out
        assert "PROTOCOL D" in out and "Lemma 3.16" in out

    def test_summary(self, capsys):
        assert main(["summary"]) == 0
        out = capsys.readouterr().out
        assert "MP/Byz" in out and "gap: substantial" in out


class TestSVGCommand:
    def test_panel_file_written(self, tmp_path, capsys):
        out = tmp_path / "panel.svg"
        assert main([
            "svg", "--model", "SM/CR", "--validity", "RV2",
            "--n", "10", "--out", str(out),
        ]) == 0
        assert out.exists()
        assert "<svg" in out.read_text()

    def test_full_figure(self, tmp_path, capsys):
        out = tmp_path / "fig.svg"
        assert main([
            "svg", "--model", "MP/CR", "--n", "8", "--out", str(out),
            "--full-figure",
        ]) == 0
        assert "WV2" in out.read_text()


class TestTraceCommand:
    def test_protocol_trace(self, capsys):
        assert main([
            "trace", "chaudhuri@mp-cr", "--n", "4", "--k", "2", "--t", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "DECIDE" in out

    def test_construction_trace(self, capsys):
        assert main(["trace", "--lemma", "Lemma 3.5"]) == 0
        out = capsys.readouterr().out
        assert "CRASH" in out

    def test_unknown_lemma(self, capsys):
        assert main(["trace", "--lemma", "Lemma 9.9"]) == 1

    def test_missing_spec(self, capsys):
        assert main(["trace"]) == 2


class TestExhaustiveCommand:
    def test_clean_instance(self, capsys):
        assert main([
            "exhaustive", "protocol-a@mp-cr", "--n", "3", "--k", "2",
            "--t", "1", "--inputs", "v", "v", "w",
        ]) == 0
        out = capsys.readouterr().out
        assert "exhaustive" in out and "violations: 0" in out

    def test_sm_spec_explored(self, capsys):
        assert main([
            "exhaustive", "protocol-e@sm-cr", "--n", "2", "--k", "2",
            "--t", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "exhaustive" in out and "violations: 0" in out
        assert "restores /" in out and "re-fed results" in out

    def test_handler_runs_reported_against_probes(self, capsys):
        """The transition memo answers most message-passing steps, so
        far fewer handlers run than the store is probed."""
        assert main([
            "exhaustive", "protocol-a@mp-cr", "--n", "3", "--k", "2",
            "--t", "1", "--inputs", "v", "v", "w",
        ]) == 0
        out = capsys.readouterr().out
        match = re.search(r"handler runs: (\d+) for (\d+) probes", out)
        assert match, out
        runs, probes = map(int, match.groups())
        assert 0 < runs < probes

    def test_symmetry_line_reports_renamings(self, capsys):
        assert main([
            "exhaustive", "protocol-a@mp-cr", "--n", "3", "--k", "2",
            "--t", "1", "--inputs", "v", "v", "w", "--symmetry",
        ]) == 0
        out = capsys.readouterr().out
        assert "symmetry: group of 2 permutations" in out
        assert "renamings per canonicalization" in out


class TestCampaignCommand:
    def test_small_campaign(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert main([
            "campaign", "--name", "cli-test", "--n", "5",
            "--points", "1", "--runs", "2", "--out", str(out),
        ]) == 0
        assert out.exists()
        assert "clean" in capsys.readouterr().out

    def test_failed_shards_exit_one(self, capsys):
        # every first attempt raises and no retry is left: without
        # --store too, the run fails loudly instead of reading clean
        assert main([
            "campaign", "--name", "x", "--n", "5", "--points", "1",
            "--runs", "2", "--specs", "chaudhuri@mp-cr",
            "--chaos-error", "1.0", "--retries", "0",
        ]) == 1
        out = capsys.readouterr().out
        assert "failed shards" in out and "clean" not in out
        assert "!! chaudhuri@mp-cr|n=5|" in out

    def test_retries_follow_the_first_attempt(self, capsys):
        # chaos fails only first attempts, so one retry after each is
        # enough (with --retries 0 the run fails, as above)
        assert main([
            "campaign", "--name", "x", "--n", "5", "--points", "1",
            "--runs", "2", "--specs", "chaudhuri@mp-cr",
            "--chaos-error", "1.0", "--backoff", "0.01", "--retries", "1",
        ]) == 0
        assert "2 shards completed (2 retries)" in capsys.readouterr().out


class TestDurableCampaignCommand:
    ARGS = [
        "--name", "cli-durable", "--specs", "chaudhuri@mp-cr",
        "protocol-b@mp-cr", "--n", "5", "--points", "1", "--runs", "2",
        "--seed", "7", "--backoff", "0.01",
    ]

    def test_durable_run_reports_execution(self, tmp_path, capsys):
        store = tmp_path / "jobs.sqlite"
        assert main([
            "campaign", *self.ARGS, "--store", str(store),
        ]) == 0
        out = capsys.readouterr().out
        assert "execution: 1 worker; " in out
        assert "shards completed" in out

    def test_interrupt_resume_diff_cycle(self, tmp_path, capsys):
        # the CI chaos drill, in miniature: chaos-interrupted run (exit
        # 3), resume to completion, diff against a fresh clean run
        store = tmp_path / "jobs.sqlite"
        resumed = tmp_path / "resumed.json"
        fresh = tmp_path / "fresh.json"
        assert main([
            "campaign", *self.ARGS, "--store", str(store),
            "--jobs", "2", "--chaos-kill", "0.5", "--chaos-seed", "3",
            "--max-shards", "1", "--out", str(resumed),
        ]) == 3
        out = capsys.readouterr().out
        assert "INCOMPLETE" in out and "--resume cli-durable" in out
        assert main([
            "campaign", "--resume", "cli-durable", "--store", str(store),
            "--backoff", "0.01", "--out", str(resumed),
        ]) == 0
        capsys.readouterr()
        assert main(["campaign", *self.ARGS, "--out", str(fresh)]) == 0
        capsys.readouterr()
        assert main(["diff-resumed", str(resumed), str(fresh)]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_diff_resumed_detects_divergence(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["campaign", *self.ARGS, "--out", str(a)]) == 0
        assert main([
            "campaign", "--name", "cli-durable", "--specs",
            "chaudhuri@mp-cr", "protocol-b@mp-cr", "--n", "5",
            "--points", "1", "--runs", "2", "--seed", "8",
            "--out", str(b),
        ]) == 0
        capsys.readouterr()
        assert main(["diff-resumed", str(a), str(b)]) == 1

    def test_resume_requires_store(self, capsys):
        assert main(["campaign", "--resume", "x"]) == 2
        assert "--resume requires --store" in capsys.readouterr().err

    def test_max_shards_requires_store(self, capsys):
        assert main(["campaign", "--max-shards", "1"]) == 2
        assert "--max-shards requires --store" in capsys.readouterr().err

    def test_resume_unknown_run_exit_two(self, tmp_path, capsys):
        store = tmp_path / "jobs.sqlite"
        assert main([
            "campaign", "--resume", "ghost", "--store", str(store),
        ]) == 2
        assert "cannot resume" in capsys.readouterr().err


class TestRecommendAndSolve:
    def test_recommend_lists_candidates(self, capsys):
        assert main([
            "recommend", "--model", "SM/CR", "--validity", "SV2",
            "--n", "12", "--k", "6", "--t", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "protocol-f@sm-cr" in out

    def test_recommend_open_point(self, capsys):
        assert main([
            "recommend", "--model", "MP/CR", "--validity", "SV2",
            "--n", "16", "--k", "2", "--t", "5",
        ]) == 1
        assert "open problem" in capsys.readouterr().out

    def test_solve_end_to_end(self, capsys):
        assert main([
            "solve", "--model", "MP/CR", "--validity", "RV1",
            "--n", "5", "--k", "3", "--t", "2",
        ]) == 0
        assert "OK" in capsys.readouterr().out

    def test_solve_impossible(self, capsys):
        assert main([
            "solve", "--model", "MP/Byz", "--validity", "RV1",
            "--n", "5", "--k", "3", "--t", "2",
        ]) == 1
        assert "impossible" in capsys.readouterr().out


class TestVerifyFlag:
    """`--verify` runs the oracle stack on top of the normal verdicts."""

    def test_run_verify(self, capsys):
        code = main([
            "run", "protocol-b@mp-cr",
            "--n", "5", "--k", "3", "--t", "1", "--verify",
        ])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_sweep_verify(self, capsys):
        code = main([
            "sweep", "chaudhuri@mp-cr",
            "--n", "5", "--k", "2", "--t", "1", "--runs", "4", "--verify",
        ])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_exhaustive_verify(self, capsys):
        code = main([
            "exhaustive", "protocol-b@mp-cr",
            "--n", "3", "--k", "2", "--t", "0",
            "--max-states", "6000", "--verify",
        ])
        assert code == 0
        assert "violations: 0" in capsys.readouterr().out

    def test_attack_verify_and_witness(self, capsys, tmp_path):
        path = tmp_path / "witness.json"
        code = main([
            "attack", "protocol-b@mp-cr",
            "--n", "5", "--k", "3", "--t", "1",
            "--attempts", "4", "--verify", "--save-witness", str(path),
        ])
        assert code == 0
        assert path.exists()
        assert "witness" in capsys.readouterr().out

    def test_attack_witness_refused_for_byzantine_attempts(
        self, capsys, tmp_path
    ):
        path = tmp_path / "witness.json"
        code = main([
            "attack", "protocol-d@mp-byz",
            "--n", "7", "--k", "2", "--t", "1",
            "--attempts", "6", "--seed", "2", "--save-witness", str(path),
        ])
        out = capsys.readouterr().out
        if code == 2:
            assert "cannot save witness" in out
        else:
            assert path.exists()


class TestVerifyRun:
    def test_round_trip_through_attack(self, capsys, tmp_path):
        path = tmp_path / "witness.json"
        assert main([
            "attack", "protocol-b@mp-cr",
            "--n", "5", "--k", "3", "--t", "1",
            "--attempts", "3", "--save-witness", str(path),
        ]) == 0
        capsys.readouterr()
        assert main(["verify-run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "replay deterministic" in out

    def test_missing_file_exit_two(self, capsys, tmp_path):
        assert main(["verify-run", str(tmp_path / "absent.json")]) == 2
        assert "cannot load witness" in capsys.readouterr().out


class TestRegistry:
    #: Every subcommand ``python -m repro --help`` lists, in its order.
    NAMES = [
        "classify", "panel", "figure", "lattice", "run", "sweep", "attack",
        "construct", "protocols", "recommend", "solve", "paper", "summary",
        "svg", "trace", "exhaustive", "certify", "verify-run",
        "staticcheck", "campaign", "diff-resumed",
    ]

    def test_registry_holds_every_subcommand(self):
        from repro.cli import _COMMANDS

        assert list(_COMMANDS) == self.NAMES

    @pytest.mark.parametrize("name", NAMES)
    def test_help_exits_zero(self, name, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([name, "--help"])
        assert exit_info.value.code == 0
        assert f"usage: repro {name}" in capsys.readouterr().out


class TestJobsUsage:
    @pytest.mark.parametrize("argv", [
        ["sweep", "trivial@mp-cr", "--n", "3", "--k", "1", "--t", "0"],
        ["attack", "trivial@mp-cr", "--n", "3", "--k", "1", "--t", "0"],
        ["campaign"],
        ["certify", "--n", "3"],
        ["exhaustive", "trivial@mp-cr", "--n", "3", "--k", "1", "--t", "0"],
    ], ids=lambda argv: argv[0])
    def test_negative_jobs_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--jobs", "-1"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"usage: repro {argv[0]}" in err
        assert "argument --jobs: must be >= 0, got -1" in err


class TestCountUsage:
    @pytest.mark.parametrize("argv", [
        ["sweep", "trivial@mp-cr", "--n", "3", "--k", "1", "--t", "0",
         "--runs"],
        ["campaign", "--runs"],
        ["campaign", "--points"],
        ["campaign", "--retries"],
        ["campaign", "--max-shards"],
        ["attack", "trivial@mp-cr", "--n", "3", "--k", "1", "--t", "0",
         "--attempts"],
        ["certify", "--n", "3", "--max-sends"],
    ], ids=lambda argv: f"{argv[0]}{argv[-1]}")
    def test_negative_count_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["-1"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"usage: repro {argv[0]}" in err
        assert f"argument {argv[-1]}: must be >= 0, got -1" in err
