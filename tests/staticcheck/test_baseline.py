"""Baseline mechanics: fingerprints, round-trips, partitioning."""

import dataclasses

import pytest

from repro.staticcheck.baseline import (
    Baseline,
    BaselineEntry,
    fingerprint,
    load_baseline,
    partition,
    save_baseline,
)
from repro.staticcheck.engine import Finding, TraceStep


def make_finding(**overrides):
    base = dict(
        rule_id="DET003",
        severity="error",
        path="protocols/x.py",
        line=10,
        col=5,
        message="min() over an unordered collection",
        line_text="winner = min(candidates)",
        occurrence=0,
    )
    base.update(overrides)
    return Finding(**base)


class TestFingerprint:
    def test_stable_under_line_drift(self):
        a = make_finding(line=10)
        b = make_finding(line=200, col=1)
        assert fingerprint(a) == fingerprint(b)

    def test_changes_when_code_changes(self):
        a = make_finding()
        b = make_finding(line_text="winner = min(others)")
        assert fingerprint(a) != fingerprint(b)

    def test_occurrence_disambiguates_duplicates(self):
        a = make_finding(occurrence=0)
        b = make_finding(occurrence=1)
        assert fingerprint(a) != fingerprint(b)

    def test_rule_and_path_matter(self):
        a = make_finding()
        assert fingerprint(a) != fingerprint(
            dataclasses.replace(a, rule_id="DET001")
        )
        assert fingerprint(a) != fingerprint(
            dataclasses.replace(a, path="protocols/y.py")
        )

    def test_trace_route_is_part_of_v2_identity(self):
        step = lambda path: TraceStep(  # noqa: E731
            path=path, line=1, col=1, note="hop"
        )
        via_helpers = make_finding(
            rule_id="FLOW001",
            trace=(step("protocols/helpers.py"), step("protocols/x.py")),
        )
        via_util = make_finding(
            rule_id="FLOW001",
            trace=(step("protocols/util.py"), step("protocols/x.py")),
        )
        # Same sink line, different laundering route: goes stale.
        assert fingerprint(via_helpers) != fingerprint(via_util)


class TestRoundTrip:
    def test_save_load_preserves_entries(self, tmp_path):
        findings = [make_finding(), make_finding(occurrence=1)]
        reasons = {fingerprint(findings[0]): "deliberate ablation"}
        baseline = Baseline.from_findings(findings, reasons=reasons)
        path = tmp_path / "baseline.json"
        save_baseline(baseline, str(path))
        loaded = load_baseline(str(path))
        assert loaded.entries == baseline.entries
        by_print = {e.fingerprint: e.reason for e in loaded.entries}
        assert by_print[fingerprint(findings[0])] == "deliberate ablation"
        assert by_print[fingerprint(findings[1])] == ""

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        for fmt in ("something-else/9", "repro-staticcheck-baseline/1"):
            path.write_text(f'{{"format": "{fmt}", "entries": []}}')
            with pytest.raises(ValueError):
                load_baseline(str(path))

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            load_baseline(str(path))


class TestPartition:
    def test_no_baseline_everything_is_new(self):
        findings = [make_finding()]
        new, accepted, stale = partition(findings, None)
        assert new == findings and not accepted and not stale

    def test_baselined_finding_is_accepted(self):
        finding = make_finding()
        baseline = Baseline.from_findings([finding])
        new, accepted, stale = partition([finding], baseline)
        assert not new and accepted == [finding] and not stale

    def test_unmatched_entry_goes_stale(self):
        gone = make_finding(line_text="old = min(legacy)")
        still = make_finding()
        baseline = Baseline.from_findings([gone, still])
        new, accepted, stale = partition([still], baseline)
        assert not new
        assert accepted == [still]
        assert [e.fingerprint for e in stale] == [fingerprint(gone)]

    def test_one_entry_absorbs_one_finding(self):
        # two identical findings need two baseline entries; occurrence
        # numbering (done by the engine) is what makes that possible
        first = make_finding(occurrence=0)
        second = make_finding(occurrence=1)
        baseline = Baseline.from_findings([first])
        new, accepted, stale = partition([first, second], baseline)
        assert new == [second]
        assert accepted == [first]
        assert not stale

    def test_stale_entries_never_mask_new_findings(self):
        stale_entry = BaselineEntry(
            rule="DET001", path="runtime/z.py", fingerprint="feedfeedfeedfeed"
        )
        fresh = make_finding()
        new, accepted, stale = partition([fresh], Baseline([stale_entry]))
        assert new == [fresh]
        assert stale == [stale_entry]
