"""Exploration counterexamples must replay from scratch.

The fast-fork explorer executes nearly every step of a violating path
on a kernel that was restored from a snapshot.  Its soundness contract
is that the recorded choice path nevertheless reproduces the violation
on a *fresh* kernel -- :func:`exploration_witnesses` turns explorer
violations into replayable witness files and
:func:`confirm_exploration` re-executes them through the oracle stack.

The violating instances here judge registered protocols against a
validity condition stricter than the one they solve: under a partial
broadcast crash both PROTOCOL A (message passing) and PROTOCOL E
(shared memory) decide values SV2 forbids.  The message-passing
ablations of :mod:`repro.protocols.ablations` violate SV2 by design;
registered under test-only names, every counterexample they produce
over a whole crash-pattern family must replay too.
"""

import pytest

from repro.core.validity import RV2, SV2
from repro.failures.crash import (
    CrashPlan,
    CrashPoint,
    CrashWhenOthersDecide,
)
from repro.harness.exhaustive import (
    SpecFactory,
    crash_patterns,
    explore_mp,
    explore_sm,
)
from repro.models import Model
from repro.protocols import base
from repro.protocols.ablations import (
    CredulousProcess,
    ProtocolBStrictQuorum,
    ProtocolCPlainBroadcast,
)
from repro.verify.witness import (
    Witness,
    confirm_exploration,
    exploration_witnesses,
)

MP_SPEC = "protocol-a@mp-cr"
MP_INPUTS = ["w", "v", "v"]
MP_PLAN = CrashPlan({0: CrashPoint(after_sends=2)})

SM_SPEC = "protocol-e@sm-cr"
SM_INPUTS = ["b", "a"]
SM_PLAN = CrashPlan({0: CrashPoint(after_steps=2)})


class _StubExploration:
    """Duck-typed stand-in carrying hand-built violation records."""

    def __init__(self, violations):
        self.violations = violations


def _mp_exploration(**kwargs):
    return explore_mp(
        SpecFactory(MP_SPEC, n=3, k=2, t=1), MP_INPUTS, k=2, t=1,
        validity=SV2, crash_adversary=MP_PLAN, **kwargs,
    )


def _sm_exploration():
    return explore_sm(
        SpecFactory(SM_SPEC, n=2, k=2, t=2), SM_INPUTS, k=2, t=2,
        validity=SV2, crash_adversary=SM_PLAN,
    )


class TestExplorationWitnesses:
    def test_mp_violation_becomes_witness(self):
        exploration = _mp_exploration()
        assert exploration.exhausted and not exploration.all_ok
        witnesses = exploration_witnesses(
            exploration, MP_SPEC, MP_INPUTS, 2, 1,
            crash_adversary=MP_PLAN, validity="SV2",
        )
        assert len(witnesses) == len(exploration.violations)
        first = witnesses[0]
        assert first.kind == "mp"
        assert first.choices == exploration.violations[0][0]
        assert first.expect == ("validity:SV2",)
        assert first.crash_points == {0: {"after_sends": 2}}

    def test_sm_violation_becomes_witness(self):
        exploration = _sm_exploration()
        assert exploration.exhausted and not exploration.all_ok
        witnesses = exploration_witnesses(
            exploration, SM_SPEC, SM_INPUTS, 2, 2,
            crash_adversary=SM_PLAN, validity="SV2",
        )
        assert witnesses and all(w.kind == "sm" for w in witnesses)

    def test_witness_round_trips_as_json(self):
        exploration = _mp_exploration()
        witness = exploration_witnesses(
            exploration, MP_SPEC, MP_INPUTS, 2, 1,
            crash_adversary=MP_PLAN, validity="SV2",
        )[0]
        assert Witness.from_json(witness.to_json()) == witness

    def test_validity_defaults_to_spec_condition(self):
        stub = _StubExploration([((0, 1), {"validity": "broken"})])
        witness = exploration_witnesses(stub, MP_SPEC, MP_INPUTS, 2, 1)[0]
        # protocol-a@mp-cr registers RV2
        assert witness.validity == "RV2"
        assert witness.expect == ("validity:RV2",)

    def test_termination_failures_not_expected(self):
        """A choice-list replay looks truncated, so the termination
        oracle is skipped on replay; expecting it would always fail."""
        stub = _StubExploration(
            [((0, 1, 2), {"termination": "stalled", "agreement": "split"})]
        )
        witness = exploration_witnesses(
            stub, MP_SPEC, MP_INPUTS, 2, 1, validity="SV2",
        )[0]
        assert witness.expect == ("agreement",)

    def test_oracle_judge_keys_pass_through(self):
        """``explore_mp(verify=True)`` keys failures by oracle name
        already; only the bare judge's ``"validity"`` key is remapped."""
        stub = _StubExploration([((0,), {"validity:SV2": "detail"})])
        witness = exploration_witnesses(
            stub, MP_SPEC, MP_INPUTS, 2, 1, validity="SV2",
        )[0]
        assert witness.expect == ("validity:SV2",)

    def test_dynamic_adversary_rejected(self):
        stub = _StubExploration([((0,), {"agreement": "split"})])
        with pytest.raises(ValueError, match="static crash plans"):
            exploration_witnesses(
                stub, MP_SPEC, MP_INPUTS, 2, 1,
                crash_adversary=CrashWhenOthersDecide([0], [1, 2]),
            )


class TestConfirmExploration:
    def test_mp_counterexamples_replay(self):
        exploration = _mp_exploration()
        reports = confirm_exploration(
            exploration, MP_SPEC, MP_INPUTS, 2, 1,
            crash_adversary=MP_PLAN, validity="SV2",
        )
        assert len(reports) == len(exploration.violations)
        assert all(r.deterministic for r in reports)
        assert all(r.demonstrates_expected for r in reports)

    def test_por_counterexamples_replay(self):
        """POR picks one representative schedule per equivalence class;
        those representatives must be real executions too."""
        exploration = _mp_exploration(por=True)
        assert exploration.sleep_pruned > 0
        confirm_exploration(
            exploration, MP_SPEC, MP_INPUTS, 2, 1,
            crash_adversary=MP_PLAN, validity="SV2",
        )

    def test_sm_counterexamples_replay(self):
        exploration = _sm_exploration()
        reports = confirm_exploration(
            exploration, SM_SPEC, SM_INPUTS, 2, 2,
            crash_adversary=SM_PLAN, validity="SV2",
        )
        assert reports and all(r.deterministic for r in reports)
        assert all(r.demonstrates_expected for r in reports)

    def test_sm_counterexamples_replay_over_crash_patterns(self):
        """Every violation the SM explorer records replays from scratch.

        The explorer reaches nearly every state through memoized
        operations and kernels materialized from hash-consed nodes, so a
        recorded choice path must still reach its violation on a fresh
        kernel.  PROTOCOL E at n=3, k=1 (outside its k >= 2 region), over
        the whole crash-pattern family, with symmetry off and on.
        """
        inputs = ["v", "v", "w"]
        confirmed = 0
        for symmetry in (False, True):
            for plan in crash_patterns(3, 1, max_sends=1):
                exploration = explore_sm(
                    SpecFactory(SM_SPEC, 3, 1, 1), inputs, k=1, t=1,
                    validity=RV2, crash_adversary=plan, symmetry=symmetry,
                )
                assert exploration.exhausted
                reports = confirm_exploration(
                    exploration, SM_SPEC, inputs, 1, 1,
                    crash_adversary=plan,
                )
                assert len(reports) == len(exploration.violations)
                confirmed += len(reports)
        assert confirmed > 0

    def test_clean_exploration_yields_no_reports(self):
        exploration = explore_mp(
            SpecFactory(MP_SPEC, n=3, k=2, t=1), MP_INPUTS, k=2, t=1,
            validity=SV2,
        )
        assert exploration.all_ok
        assert confirm_exploration(
            exploration, MP_SPEC, MP_INPUTS, 2, 1, validity="SV2",
        ) == []

    def test_unreproducible_violation_raises(self):
        """A fabricated violation on a clean path must be caught: the
        replay demonstrates none of the claimed oracles."""
        stub = _StubExploration(
            [((0, 1, 2), {"agreement": "never actually happened"})]
        )
        with pytest.raises(ValueError, match="failed to replay"):
            confirm_exploration(
                stub, MP_SPEC, MP_INPUTS, 2, 1, validity="SV2",
            )


@pytest.mark.parametrize(
    "cls", [ProtocolBStrictQuorum, ProtocolCPlainBroadcast, CredulousProcess],
    ids=lambda cls: cls.__name__,
)
def test_ablation_counterexamples_replay(monkeypatch, cls):
    """Every violation POR finds in an ablation replays from scratch.

    The explorer numbers the events a memoized step sends in the order
    the first run of that handler sent them, so a recorded path names
    events by seqs a fresh kernel must assign alike.  Over the whole
    n=3 crash-pattern family, at two input patterns, each recorded path
    must reach the same violation on a fresh kernel.
    """
    name = f"ablation-{cls.__name__}@mp-cr"
    spec = base.ProtocolSpec(
        name=name, title=cls.__name__, model=Model.MP_CR, validity="SV2",
        lemma="(ablation)", solvable=lambda n, k, t: False,
        make=lambda n, k, t: cls(),
    )
    monkeypatch.setitem(base._REGISTRY, name, spec)
    confirmed = 0
    for inputs in (["v", "v", "w"], ["v", "w", "x"]):
        for plan in crash_patterns(3, 1, max_sends=1):
            exploration = explore_mp(
                SpecFactory(name, 3, 1, 1), inputs, k=1, t=1, validity=SV2,
                crash_adversary=plan, por=True,
            )
            assert exploration.exhausted
            confirmed += len(confirm_exploration(
                exploration, name, inputs, 1, 1, crash_adversary=plan,
            ))
    assert confirmed > 0
