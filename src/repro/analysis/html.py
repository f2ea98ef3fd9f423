"""Self-contained HTML report: the whole reproduction on one page.

``build_html_report`` assembles the paper-vs-measured story -- the
Fig. 1 lattice, all four region figures as embedded SVG, the Section 2.1
closed-form summary, empirical validation results, and the executed
impossibility constructions -- into a single HTML file with no external
resources.  ``python -m repro.analysis.html out.html`` writes it.
"""

from __future__ import annotations

import html
import sys
from typing import Optional

from repro.analysis.figures import FIGURE_BY_MODEL
from repro.analysis.lattice import render_lattice, verify_lattice
from repro.analysis.summary import render_summary
from repro.analysis.svg import figure_svg
from repro.models import ALL_MODELS
from repro.paper import CITATION

__all__ = ["build_html_report"]

_STYLE = """
body { font-family: Georgia, serif; max-width: 72rem; margin: 2rem auto;
       padding: 0 1rem; color: #222; }
h1, h2 { font-family: Helvetica, Arial, sans-serif; }
pre { background: #f7f7f4; border: 1px solid #ddd; padding: 0.8rem;
      overflow-x: auto; font-size: 0.8rem; }
table { border-collapse: collapse; font-size: 0.9rem; }
td, th { border: 1px solid #ccc; padding: 0.3rem 0.6rem; text-align: left; }
.ok { color: #2e7d32; font-weight: bold; }
.bad { color: #b71c1c; font-weight: bold; }
figure { margin: 1rem 0; }
figcaption { font-size: 0.85rem; color: #555; }
"""


def _section(title: str, body: str) -> str:
    return f"<h2>{html.escape(title)}</h2>\n{body}\n"


def _pre(text: str) -> str:
    return f"<pre>{html.escape(text)}</pre>"


def build_html_report(
    n_analytic: int = 64,
    campaign_runs: int = 8,
    seed: int = 0,
) -> str:
    """Build the report; returns the HTML document as a string."""
    # Imported lazily: harness.campaign itself imports analysis modules,
    # and this module is re-exported from the analysis package __init__.
    from repro.adversary.constructions import all_constructions
    from repro.harness.campaign import Campaign, run_campaign

    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        "<title>k-set consensus reproduction report</title>",
        f"<style>{_STYLE}</style></head><body>",
        "<h1>On k-Set Consensus Problems in Asynchronous Systems "
        "&mdash; reproduction report</h1>",
        f"<p>{html.escape(CITATION)}</p>",
    ]

    # Fig. 1 -- the lattice, verified.
    check = verify_lattice(samples=2000, seed=seed)
    status = (
        "<span class='ok'>verified</span>"
        if check.ok
        else "<span class='bad'>FAILED</span>"
    )
    parts.append(_section(
        "Fig. 1 — validity lattice",
        _pre(render_lattice())
        + f"<p>Empirical check over {check.samples} random outcomes: "
        f"{status}.</p>",
    ))

    # Figs. 2/4/5/6 as embedded SVG.
    for model in ALL_MODELS:
        number = FIGURE_BY_MODEL[model]
        svg = figure_svg(model, n=n_analytic)
        parts.append(_section(
            f"Fig. {number} — {model} (n = {n_analytic})",
            f"<figure>{svg}<figcaption>honeycomb = solvable, "
            "brick = impossible, white = open</figcaption></figure>",
        ))

    # Closed-form summary.
    parts.append(_section(
        "Summary of results (Section 2.1)", _pre(render_summary())
    ))

    # Possible-side empirical validation.
    campaign, _ = run_campaign(Campaign(
        name="html-report",
        n_values=(7,),
        points_per_spec=1,
        runs_per_point=campaign_runs,
        seed=seed,
    ))
    rows = ["<table><tr><th>point</th><th>runs</th><th>violations</th>"
            "<th>max distinct</th></tr>"]
    for record in campaign.records:
        cls = "ok" if record.violations == 0 else "bad"
        rows.append(
            f"<tr><td>{html.escape(record.key)}</td><td>{record.runs}</td>"
            f"<td class='{cls}'>{record.violations}</td>"
            f"<td>{record.max_distinct}</td></tr>"
        )
    rows.append("</table>")
    verdict = (
        "<p class='ok'>all sweeps violation-free</p>"
        if campaign.clean
        else f"<p class='bad'>{html.escape(campaign.summary())}</p>"
    )
    parts.append(_section(
        "Possible side — randomized sweeps inside claimed regions",
        "".join(rows) + verdict,
    ))

    # Impossible side: the constructions.
    rows = ["<table><tr><th>lemma</th><th>construction</th>"
            "<th>outcome</th></tr>"]
    for result in all_constructions():
        cls = "ok" if result.demonstrates_violation else "bad"
        outcome = (
            "violated " + ", ".join(result.violated)
            if result.demonstrates_violation
            else "NO VIOLATION (unexpected)"
        )
        rows.append(
            f"<tr><td>{html.escape(result.lemma_id)}</td>"
            f"<td>{html.escape(result.description)}</td>"
            f"<td class='{cls}'>{html.escape(outcome)}</td></tr>"
        )
    rows.append("</table>")
    parts.append(_section(
        "Impossible side — the proofs' runs, executed", "".join(rows)
    ))

    parts.append("</body></html>")
    return "\n".join(parts)


def main(argv: Optional[list] = None) -> int:  # pragma: no cover - CLI
    args = argv if argv is not None else sys.argv[1:]
    out = args[0] if args else "report.html"
    content = build_html_report()
    with open(out, "w") as handle:
        handle.write(content)
    print(f"wrote {out} ({len(content)} bytes)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
