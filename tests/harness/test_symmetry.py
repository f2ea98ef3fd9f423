"""Property tests for process-permutation symmetry reduction.

The soundness claim of :mod:`repro.harness.symmetry` is that renaming
interchangeable processes is an automorphism of the transition system:
the renamed image of any reachable execution is itself reachable, and
both land on the same canonical fingerprint.  These tests *execute*
that claim with a lockstep permutation fuzz: two identical kernels, one
driven along a random schedule and one along its renamed image,
comparing canonical fingerprints -- and, on message passing, the
per-process sorting keys -- as they go.  A wrong declaration (a
state field or payload tag whose pid mentions are renamed unfaithfully)
makes the fingerprints diverge within a few steps.

Message passing is renaming-equivariant at *every* step, so the MP fuzz
compares after each delivery.  Shared memory is subtler: a scan reads
register owner ``j`` at scan position ``j``, so the renamed schedule
observes owner ``perm^-1(j)``'s register at a different global time
than the original run did -- with writes interleaving a scan the two
logs genuinely differ, and only the reachable *sets* of outcomes
coincide (which the end-to-end differential tests pin).  The exact
stepwise invariant holds when scans execute atomically, so the SM fuzz
schedules at block granularity -- each chosen process runs to its next
cycle boundary before another is scheduled -- and compares canonical
fingerprints at the boundaries, where every permutation in the group is
feasible.
"""

import random

import pytest

from repro.core.validity import by_code
from repro.failures.crash import CrashPlan, CrashPoint
from repro.harness.exhaustive import (
    SpecFactory,
    _fresh_mp_kernel,
    _fresh_sm_kernel,
    _mp_counters_matter,
    _sm_state_ids,
    _state_ids,
    _StateTable,
    explore_mp,
    explore_sm,
)
from repro.harness.symmetry import (
    mp_symmetry_context,
    sm_symmetry_context,
    symmetry_group,
)
from repro.protocols.base import all_specs, get_spec

N = 3
INPUTS = ["v", "v", "w"]
#: Crash plan on the odd-input process: pids 0 and 1 stay symmetric.
SYMMETRIC_PLAN = CrashPlan({2: CrashPoint(after_steps=1)})


def _grid_point(spec):
    """First (k, t) of the n=3 grid the spec claims solvable."""
    for k in range(1, N + 1):
        for t in range(N):
            if spec.solvable(N, k, t):
                return k, t
    pytest.skip(f"{spec.name}: no solvable point at n={N}")


def _mp_specs():
    return [
        s for s in all_specs()
        if not s.is_shared_memory and not s.name.startswith("sim-")
    ]


def _sm_specs():
    return [
        s for s in all_specs()
        if s.is_shared_memory and not s.name.startswith("sim-")
    ]


def _lockstep_mp_fuzz(spec, inputs, t, plan, seed, rounds=3):
    """Drive a schedule and its renamed image; fingerprints must agree.

    Kernel ``A`` executes a uniformly random schedule.  Kernel ``B``
    starts from the *same* instance (the permutation preserves inputs,
    crash points, and roles, so the renamed instance is this instance)
    and executes the image of ``A``'s schedule under a random
    non-identity group element: each delivered event is matched by its
    renamed structural signature.  After every step the canonical
    fingerprints must coincide -- that is the invariant the explorer's
    visited store keys on.
    """
    k, _ = _grid_point(spec)
    factory = SpecFactory(spec.name, N, k, t)
    rng = random.Random(seed)
    include_counters = _mp_counters_matter(plan)
    for _ in range(rounds):
        kernel_a = _fresh_mp_kernel(factory, inputs, t, plan)
        ctx, reason = mp_symmetry_context(
            kernel_a._processes, inputs, t, plan
        )
        if ctx is None and "trivial" in reason:
            # Role/input structure leaves no interchangeable pair at
            # this grid point (e.g. protocol-d's broadcaster role plus
            # distinct inputs); uniform inputs restore a real group.
            inputs = ["v"] * N
            kernel_a = _fresh_mp_kernel(factory, inputs, t, plan)
            ctx, reason = mp_symmetry_context(
                kernel_a._processes, inputs, t, plan
            )
        kernel_b = _fresh_mp_kernel(factory, inputs, t, plan)
        assert ctx is not None, f"{spec.name}: {reason}"
        # Both kernels intern into one table, as one exploration would.
        table = _StateTable()

        def canonical(kernel):
            ids = _state_ids(kernel, table)
            return ctx.canonical(ids, include_counters, lambda _: kernel)[0]

        def process_keys(kernel):
            ids = _state_ids(kernel, table)
            return ctx._process_keys(
                ids, sorted(ids.sigs.values()), include_counters,
                lambda _: kernel,
            )

        perms = ctx._perms
        pi = perms[rng.randrange(1, len(perms))]
        identity = perms[0]
        steps = 0
        while kernel_a._pending and steps < 60:
            fp_a = canonical(kernel_a)
            fp_b = canonical(kernel_b)
            assert fp_a == fp_b, f"{spec.name}: diverged after {steps} steps"
            # The sorting key commutes with renaming: p in A has the key
            # pi[p] has in B, the renamed state.
            keys_a = process_keys(kernel_a)
            keys_b = process_keys(kernel_b)
            assert [keys_b[pi[pid]] for pid in range(N)] == keys_a, (
                f"{spec.name}: process keys not renaming-invariant after "
                f"{steps} steps"
            )
            seq_a = rng.choice(sorted(kernel_a._pending))
            want = ctx._rename_sig(kernel_a._pending[seq_a], pi)
            matches = [
                seq for seq in sorted(kernel_b._pending)
                if ctx._rename_sig(kernel_b._pending[seq], identity) == want
            ]
            assert matches, (
                f"{spec.name}: renamed event {want} missing from the "
                f"renamed kernel -- renaming is not an automorphism"
            )
            kernel_a.step(seq_a)
            kernel_b.step(matches[0])
            steps += 1
        assert canonical(kernel_a) == canonical(kernel_b)


class TestMPCanonicalInvariance:
    @pytest.mark.parametrize(
        "spec", _mp_specs(), ids=lambda s: s.name
    )
    def test_failure_free(self, spec):
        _lockstep_mp_fuzz(spec, INPUTS, t=0, plan=None, seed=1)

    @pytest.mark.parametrize(
        "spec", _mp_specs(), ids=lambda s: s.name
    )
    def test_under_symmetric_crash_plan(self, spec):
        for k in range(1, N + 1):
            if spec.solvable(N, k, 1):
                break
        else:
            pytest.skip(f"{spec.name}: no t=1 point at n={N}")
        _lockstep_mp_fuzz(spec, INPUTS, t=1, plan=SYMMETRIC_PLAN, seed=2)

    def test_uniform_inputs_full_group(self):
        spec = get_spec("protocol-b@mp-cr")
        _lockstep_mp_fuzz(spec, ["v"] * N, t=0, plan=None, seed=3)

    def test_keys_ignore_counters_the_fingerprint_leaves_out(self):
        """Without a crash adversary the fingerprint holds no counters,
        so neither may the sorting keys: two kernel states with one
        fingerprint must sort, and canonicalize, alike."""
        inputs = ["v"] * N
        factory = SpecFactory("protocol-a@mp-cr", N, 2, 0)
        kernel = _fresh_mp_kernel(factory, inputs, 0, None)
        assert not _mp_counters_matter(None)
        ctx, reason = mp_symmetry_context(kernel._processes, inputs, 0, None)
        assert ctx is not None, reason
        for seq in sorted(kernel._pending)[:N]:
            kernel.step(seq)  # every process starts: all three keys tie
        table = _StateTable()

        def observe():
            ids = _state_ids(kernel, table)
            keys = ctx._process_keys(
                ids, sorted(ids.sigs.values()), False, lambda _: kernel
            )
            return ctx.canonical(ids, False, lambda _: kernel)[0], keys

        before = observe()
        # Same fingerprint, other counters.
        kernel._steps_taken[0] += 2
        kernel._sends_made[1] += 1
        assert observe() == before


def _step_block(kernel, ctx, pid):
    """Step ``pid`` until its in-progress scan (if any) completes."""
    kernel.step_pid(pid)
    state = kernel._states[pid]
    while (
        pid in kernel.runnable_pids()
        and ctx._open_scan(len(state.results_log), state.decided)
    ):
        kernel.step_pid(pid)


class TestSMCanonicalInvariance:
    @pytest.mark.parametrize(
        "spec", _sm_specs(), ids=lambda s: s.name
    )
    def test_pi_image_block_schedule(self, spec):
        """A block-atomic schedule and its pid-renamed image reach equal
        canonical fingerprints at every cycle boundary."""
        k, t = _grid_point(spec)
        factory = SpecFactory(spec.name, N, k, t)
        rng = random.Random(11)
        for _ in range(3):
            kernel_a = _fresh_sm_kernel(factory, INPUTS, t, None)
            kernel_b = _fresh_sm_kernel(factory, INPUTS, t, None)
            ctx, reason = sm_symmetry_context(
                kernel_a._programs, INPUTS, t, None
            )
            assert ctx is not None, f"{spec.name}: {reason}"
            pi = ctx._perms[rng.randrange(1, len(ctx._perms))]
            # Both kernels intern into one table, as one exploration
            # would.
            table = _StateTable()

            def canonical(kernel):
                return ctx.canonical(
                    _sm_state_ids(kernel, table), lambda _: kernel
                )[0]

            blocks = 0
            while kernel_a.runnable_pids() and blocks < 30:
                pid = rng.choice(sorted(kernel_a.runnable_pids()))
                assert pi[pid] in kernel_b.runnable_pids(), (
                    f"{spec.name}: renamed pid not runnable -- renaming "
                    f"is not an automorphism"
                )
                _step_block(kernel_a, ctx, pid)
                _step_block(kernel_b, ctx, pi[pid])
                fp_a = canonical(kernel_a)
                fp_b = canonical(kernel_b)
                assert fp_a == fp_b, (
                    f"{spec.name}: diverged after {blocks} blocks"
                )
                blocks += 1
            assert blocks > 0

    @pytest.mark.parametrize(
        "spec", _sm_specs(), ids=lambda s: s.name
    )
    def test_sym_explore_matches_full_dfs(self, spec):
        """End to end on the SM kernel: symmetry+POR and full DFS agree
        on findings for interleavings the block fuzz cannot cover (scans
        split by concurrent writes)."""
        if spec.name.startswith("protocol-f"):
            pytest.skip(
                "protocol-f's n=3 space is not exhaustible in a test "
                "budget; its canonicalization is covered by the block "
                "fuzz above"
            )
        k, t = _grid_point(spec)
        factory = SpecFactory(spec.name, N, k, t)
        validity = by_code("SV2")
        full = explore_sm(
            factory, INPUTS, k, t, validity,
        )
        sym = explore_sm(
            factory, INPUTS, k, t, validity, symmetry=True,
        )
        assert full.exhausted and sym.exhausted
        assert sym.violation_kinds() == full.violation_kinds()
        assert sym.decision_sets == full.decision_sets
        if sym.stats.symmetry:
            assert sym.states < full.states

    def test_sim_specs_refuse_gracefully(self):
        """Simulation wrappers carry per-pid closure state the renamer
        has no declaration for; the context must refuse with the
        sim-specific reason (surfaced by certification reports), not a
        generic "heterogeneous programs"."""
        for name in ("sim-chaudhuri@sm-cr", "sim-protocol-b@sm-cr"):
            spec = get_spec(name)
            factory = SpecFactory(name, N, 2, 1)
            kernel = _fresh_sm_kernel(factory, INPUTS, 1, None)
            ctx, reason = sm_symmetry_context(
                kernel._programs, INPUTS, 1, None
            )
            assert ctx is None
            assert "simulation wrapper" in reason

    def test_non_sim_closure_programs_get_closure_reason(self):
        """Distinct per-pid closures that are not the simulation wrapper
        still refuse, naming the closure rather than the sim gap."""
        def make():
            state = []

            def program(ctx):
                state.append(ctx)
                yield

            return program

        programs = [make(), make(), make()]
        ctx, reason = sm_symmetry_context(programs, ["v", "v", "w"], 1, None)
        assert ctx is None
        assert "per-process closures" in reason
        assert "simulation wrapper" not in reason


class TestSymmetryGroup:
    def test_identity_first(self):
        perms = symmetry_group(["v", "v", "w"])
        assert perms[0] == (0, 1, 2)
        assert set(perms) == {(0, 1, 2), (1, 0, 2)}

    def test_uniform_keys_full_symmetric_group(self):
        assert len(symmetry_group(["v"] * 4)) == 24

    def test_distinct_keys_trivial_group(self):
        assert symmetry_group(["a", "b", "c"]) == [(0, 1, 2)]

    def test_product_of_classes(self):
        perms = symmetry_group(["v", "v", "w", "w"])
        assert len(perms) == 4


class TestAdversaryGating:
    def test_asymmetric_crash_plan_trivializes_group(self):
        """A crash point on one of the interchangeable processes breaks
        the symmetry; the context must refuse rather than unsoundly
        identify a crashing process with a correct one."""
        spec = get_spec("protocol-b@mp-cr")
        factory = SpecFactory(spec.name, N, 2, 1)
        plan = CrashPlan({0: CrashPoint(after_steps=1)})
        kernel = _fresh_mp_kernel(factory, INPUTS, 1, plan)
        ctx, reason = mp_symmetry_context(
            kernel._processes, INPUTS, 1, plan
        )
        assert ctx is None
        assert "trivial" in reason

    def test_matching_crash_points_keep_symmetry(self):
        """Interchangeable processes crashing at the *same* point stay
        interchangeable."""
        spec = get_spec("protocol-b@mp-cr")
        factory = SpecFactory(spec.name, N, 2, 2)
        plan = CrashPlan({
            0: CrashPoint(after_steps=1),
            1: CrashPoint(after_steps=1),
        })
        kernel = _fresh_mp_kernel(factory, INPUTS, 2, plan)
        ctx, reason = mp_symmetry_context(
            kernel._processes, INPUTS, 2, plan
        )
        assert ctx is not None, reason
        assert ctx.group_size == 2

    def test_symmetric_explore_matches_full_dfs_under_plans(self):
        """End to end: symmetry+POR vs full DFS, same findings, for a
        spread of crash plans at n=3."""
        factory = SpecFactory("protocol-a@mp-cr", N, 2, 1)
        validity = by_code("RV2")
        for plan in (
            None,
            SYMMETRIC_PLAN,
            CrashPlan({2: CrashPoint(after_sends=1)}),
        ):
            full = explore_mp(
                factory, INPUTS, 2, 1, validity,
                crash_adversary=plan, por=False,
            )
            sym = explore_mp(
                factory, INPUTS, 2, 1, validity,
                crash_adversary=plan, symmetry=True,
            )
            assert full.exhausted and sym.exhausted
            assert sym.stats.symmetry, plan
            assert sym.violation_kinds() == full.violation_kinds()
            assert sym.decision_sets == full.decision_sets
            assert sym.states < full.states, plan


#: Godefroid counters of POR + symmetry on the exact store, pinned so a
#: change of orbit representative or sleep coordinates shows up here:
#: ``(spec, n, k, t, inputs, crashed pids, states, reexpansions,
#: cache_hits, violations, sleep_pruned)``.  ``orbit_hits`` is left
#: unpinned: it counts hits whose representative is a proper renaming,
#: so it moves with the choice of representative.
PINNED_COUNTERS = [
    pytest.param(
        "protocol-a@mp-cr", 3, 2, 1, ["v", "v", "w"], (),
        568, 93, 334, 0, None, id="protocol-a-n3",
    ),
    pytest.param(
        "protocol-b@mp-cr", 3, 1, 1, ["v", "w", "w"], (),
        613, 140, 415, 43, None, id="protocol-b-n3",
    ),
    # The end-to-end benchmark's explore-sym instance.
    pytest.param(
        "protocol-a@mp-cr", 4, 2, 1, ["v", "v", "v", "w"], (3,),
        1800, 2001, 5369, 0, 15208, id="explore-sym",
    ),
]


@pytest.mark.parametrize(
    "name, n, k, t, inputs, crashed, states, reexpansions, cache_hits, "
    "violations, sleep_pruned",
    PINNED_COUNTERS,
)
def test_godefroid_counters_under_symmetry(
    name, n, k, t, inputs, crashed, states, reexpansions, cache_hits,
    violations, sleep_pruned,
):
    plan = None
    if crashed:
        plan = CrashPlan({pid: CrashPoint(after_steps=0) for pid in crashed})
    result = explore_mp(
        SpecFactory(name, n, k, t), inputs, k, t,
        by_code(get_spec(name).validity),
        crash_adversary=plan, por=True, symmetry=True, visited="exact",
    )
    assert result.stats.symmetry and result.exhausted
    assert result.states == states
    assert result.reexpansions == reexpansions
    assert result.cache_hits == cache_hits
    assert len(result.violations) == violations
    if sleep_pruned is not None:
        assert result.sleep_pruned == sleep_pruned
