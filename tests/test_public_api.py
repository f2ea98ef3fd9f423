"""Tests for the package's public API surface."""

import repro


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_flow(self):
        verdict = repro.classify(repro.Model.MP_CR, repro.RV1, 64, 5, 4)
        assert verdict.status is repro.Solvability.POSSIBLE

        spec = repro.get_spec("chaudhuri@mp-cr")
        report = repro.run_spec(spec, 7, 3, 2, list("abcdefg"))
        assert report.ok

    def test_region_map_via_top_level(self):
        region = repro.region_map(repro.Model.SM_CR, repro.RV2, 8)
        assert region.count(repro.Solvability.POSSIBLE) == len(region.grid)

    def test_sweep_via_top_level(self):
        spec = repro.get_spec("protocol-e@sm-cr")
        stats = repro.sweep_spec(spec, 5, 2, 5, repro.SweepConfig(runs=5, seed=0))
        assert stats.clean

    def test_validity_conditions_exported(self):
        codes = {c.code for c in repro.ALL_VALIDITY_CONDITIONS}
        assert codes == {"SV1", "SV2", "RV1", "RV2", "WV1", "WV2"}

    def test_explorer_and_certify_annotations_resolve(self):
        """Every name in the signatures is importable, so tools that
        evaluate annotations (``typing.get_type_hints``) work."""
        import typing

        from repro.harness.exhaustive import explore_mp, explore_sm
        from repro.verify.certify import certify_claims

        for fn in (explore_mp, explore_sm):
            hints = typing.get_type_hints(fn)
            assert hints["visited"] is str, fn.__name__
        assert typing.get_type_hints(certify_claims)["max_states"] is int
