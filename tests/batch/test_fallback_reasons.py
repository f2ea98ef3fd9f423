"""The scalar-fallback reason codes: a closed, machine-readable vocabulary.

Every way an ``--engine auto`` sweep can fall back to the scalar engine
must (a) emit a reason whose ``.code`` is in
:data:`repro.batch.FALLBACK_REASON_CODES` and (b) land machine-readably
in :attr:`SweepStats.fallback_reason`, so result-file consumers and the
CLI echo never have to parse prose.
"""

import dataclasses

import pytest

from repro.batch import (
    FALLBACK_REASON_CODES,
    UnsupportedReason,
    sweep_unsupported_reason,
)
from repro.harness.sweep import SweepConfig, sweep_spec
from repro.protocols.base import get_spec

CONFIG = SweepConfig(runs=4)


def _reason(spec_name, n, k, t, config=CONFIG, spec=None):
    return sweep_unsupported_reason(
        spec if spec is not None else get_spec(spec_name), n, k, t, config
    )


class TestReasonCodes:
    """Each fallback path emits its documented code."""

    def test_supported_point_has_no_reason(self):
        assert _reason("chaudhuri@mp-cr", 5, 2, 1) is None

    def test_sm_spec(self):
        reason = _reason("protocol-e@sm-cr", 4, 2, 1)
        assert reason.code == "sm-spec"

    def test_no_kernel(self):
        probe = dataclasses.replace(
            get_spec("chaudhuri@mp-cr"), name="chaudhuri-fallback-probe"
        )
        assert _reason(None, 5, 2, 1, spec=probe).code == "no-kernel"

    def test_byzantine_model(self):
        reason = _reason("protocol-c@mp-byz", 6, 3, 2)
        assert reason.code == "byzantine-model"

    def test_unsupported_point(self):
        # t >= n is outside every kernel's support envelope
        reason = _reason("chaudhuri@mp-cr", 5, 2, 5)
        assert reason.code == "unsupported-point"

    def test_verify_oracles(self):
        reason = _reason(
            "chaudhuri@mp-cr", 5, 2, 1, SweepConfig(runs=4, verify=True)
        )
        assert reason.code == "verify-oracles"

    def test_unknown_patterns(self):
        config = SweepConfig(runs=4, input_patterns=("distinct", "weird"))
        reason = _reason("chaudhuri@mp-cr", 5, 2, 1, config)
        assert reason.code == "unknown-patterns"

    def test_every_emitted_code_is_in_the_vocabulary(self):
        cases = [
            _reason("protocol-e@sm-cr", 4, 2, 1),
            _reason("protocol-c@mp-byz", 6, 3, 2),
            _reason("chaudhuri@mp-cr", 5, 2, 5),
            _reason("chaudhuri@mp-cr", 5, 2, 1,
                    SweepConfig(runs=4, verify=True)),
            _reason("chaudhuri@mp-cr", 5, 2, 1,
                    SweepConfig(runs=4, input_patterns=("weird",))),
        ]
        assert all(r.code in FALLBACK_REASON_CODES for r in cases)

    def test_reason_still_reads_as_its_message(self):
        # UnsupportedReason must stay substring-compatible with the
        # prose the execution field always carried.
        reason = _reason("protocol-e@sm-cr", 4, 2, 1)
        assert isinstance(reason, str)
        assert "shared-memory" in reason


class TestUnsupportedReason:
    def test_carries_code_and_message(self):
        reason = UnsupportedReason("no-kernel", "no batch kernel for 'x'")
        assert reason.code == "no-kernel"
        assert reason == "no batch kernel for 'x'"


class TestSweepStatsFallbackField:
    def test_auto_fallback_records_code(self):
        stats = sweep_spec(
            get_spec("protocol-e@sm-cr"), 4, 2, 1, CONFIG, engine="auto"
        )
        assert stats.engine == "scalar"
        assert stats.fallback_reason == "sm-spec"
        assert "shared-memory" in stats.execution

    def test_batch_request_records_code_too(self):
        stats = sweep_spec(
            get_spec("chaudhuri@mp-cr"), 5, 2, 1,
            SweepConfig(runs=4, verify=True), engine="auto",
        )
        assert stats.fallback_reason == "verify-oracles"

    def test_no_fallback_leaves_field_empty(self):
        scalar = sweep_spec(get_spec("chaudhuri@mp-cr"), 5, 2, 1, CONFIG)
        assert scalar.fallback_reason == ""
        batch = sweep_spec(
            get_spec("chaudhuri@mp-cr"), 5, 2, 1, CONFIG, engine="auto"
        )
        assert batch.engine == "batch"
        assert batch.fallback_reason == ""


class TestCliEcho:
    def test_sweep_cli_echoes_fallback_reason(self, capsys):
        from repro.cli import main

        assert main([
            "sweep", "protocol-e@sm-cr",
            "--n", "4", "--k", "2", "--t", "1",
            "--runs", "4", "--engine", "auto",
        ]) == 0
        out = capsys.readouterr().out
        assert "fallback reason: sm-spec" in out

    def test_no_echo_without_fallback(self, capsys):
        from repro.cli import main

        assert main([
            "sweep", "chaudhuri@mp-cr",
            "--n", "5", "--k", "2", "--t", "1",
            "--runs", "4", "--engine", "auto",
        ]) == 0
        assert "fallback reason" not in capsys.readouterr().out
