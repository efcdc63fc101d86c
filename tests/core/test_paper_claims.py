"""The claims-as-code verification layer."""

import pytest

from repro.core.paper import CLAIMS, TABLES, Claim, verify
from repro.core.report import ExperimentTable


class TestClaimRegistry:
    def test_every_figure_has_claims(self):
        figures = {claim.figure for claim in CLAIMS}
        assert figures == set(TABLES) - {"table1"}

    def test_documented_deviations_are_marked(self):
        partial = [claim for claim in CLAIMS if claim.expected == "partial"]
        texts = " ".join(claim.text for claim in partial)
        assert "SMT nearly doubles" in texts
        assert "improve when prefetching is disabled" in texts
        assert len(partial) == 2

    def test_claims_have_text_and_checks(self):
        for claim in CLAIMS:
            assert claim.text
            assert callable(claim.check)


class TestVerifyMechanics:
    def test_checks_run_against_synthetic_tables(self):
        """A claim's predicate sees exactly the tables dict."""
        seen = {}

        def probe(tables):
            seen.update(tables)
            return True

        claim = Claim("figure1", "probe", probe)
        table = ExperimentTable("t", ["Workload"])
        assert claim.check({"figure1": table})
        assert seen == {"figure1": table}

    def test_verify_subset_of_figures(self, small_config):
        report = verify(small_config, figures=["figure2"])
        assert all(row["Figure"] == "figure2" for row in report.rows)
        assert len(report.rows) == 3

    def test_verify_reports_ok_column(self, small_config):
        report = verify(small_config, figures=["figure1"])
        for row in report.rows:
            assert row["OK"] in ("yes", "NO")
            assert row["Verdict"] in ("holds", "deviates")
        # Figure 1's claims all hold at the small window too.
        assert all(row["OK"] == "yes" for row in report.rows)
