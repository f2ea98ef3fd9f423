"""Committed baseline of accepted findings.

Two kinds of entries live here: *grandfathered* findings (real debt,
kept visible until fixed) and *deliberate* exceptions (e.g. the
ablation protocols exist precisely to exhibit the defect a rule
catches).  Every entry carries a one-line ``reason``.

Entries are matched by fingerprint -- a hash of the rule id, the
file path, the stripped source line text, an occurrence index, and the
deduplicated file paths of the finding's trace chain -- so they survive
pure line-number drift but go stale when the flagged code actually
changes, or when an interprocedural FLOW finding's laundering route
moves to different files (exactly the change whose exception must be
justified again).  Stale entries are reported (and should be pruned)
but never mask new findings.  The file format is
``repro-staticcheck-baseline/2``; any other format is rejected.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.staticcheck.engine import Finding

__all__ = [
    "Baseline",
    "BaselineEntry",
    "DEFAULT_BASELINE_NAME",
    "FORMAT",
    "fingerprint",
    "load_baseline",
    "partition",
    "save_baseline",
]

DEFAULT_BASELINE_NAME = "staticcheck-baseline.json"
FORMAT = "repro-staticcheck-baseline/2"


def fingerprint(finding: Finding) -> str:
    """Stable identity of a finding under line-number drift."""
    trace_paths = ";".join(
        dict.fromkeys(step.path for step in finding.trace)
    )
    payload = "\x1f".join(
        (
            "2",
            finding.rule_id,
            finding.path,
            finding.line_text,
            str(finding.occurrence),
            trace_paths,
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclasses.dataclass(frozen=True)
class BaselineEntry:
    """One accepted finding."""

    rule: str
    path: str
    fingerprint: str
    reason: str = ""

    def to_json(self) -> Dict[str, str]:
        return {
            "rule": self.rule,
            "path": self.path,
            "fingerprint": self.fingerprint,
            "reason": self.reason,
        }


@dataclasses.dataclass
class Baseline:
    """The committed set of accepted findings."""

    entries: List[BaselineEntry] = dataclasses.field(default_factory=list)

    def fingerprints(self) -> Dict[str, BaselineEntry]:
        return {entry.fingerprint: entry for entry in self.entries}

    @classmethod
    def from_findings(
        cls,
        findings: Iterable[Finding],
        reasons: Optional[Dict[str, str]] = None,
    ) -> "Baseline":
        """Build a baseline accepting ``findings``.

        ``reasons`` maps fingerprints to justification strings, which
        is what carries an existing file's reasons across a rewrite.
        """
        reasons = reasons or {}
        entries = []
        for finding in findings:
            print_ = fingerprint(finding)
            entries.append(
                BaselineEntry(
                    rule=finding.rule_id,
                    path=finding.path,
                    fingerprint=print_,
                    reason=reasons.get(print_, ""),
                )
            )
        entries.sort(key=lambda e: (e.path, e.rule, e.fingerprint))
        return cls(entries=entries)


def load_baseline(path: str) -> Baseline:
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict) or raw.get("format") != FORMAT:
        raise ValueError(
            f"{path}: not a {FORMAT} file "
            f"(format={raw.get('format')!r})"
            if isinstance(raw, dict)
            else f"{path}: not a baseline object"
        )
    entries = []
    for item in raw.get("entries", []):
        entries.append(
            BaselineEntry(
                rule=str(item["rule"]),
                path=str(item["path"]),
                fingerprint=str(item["fingerprint"]),
                reason=str(item.get("reason", "")),
            )
        )
    return Baseline(entries=entries)


def save_baseline(baseline: Baseline, path: str) -> None:
    payload = {
        "format": FORMAT,
        "entries": [entry.to_json() for entry in baseline.entries],
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
    os.replace(tmp, path)


def partition(
    findings: Sequence[Finding],
    baseline: Optional[Baseline],
) -> Tuple[List[Finding], List[Finding], List[BaselineEntry]]:
    """Split findings into (new, accepted) and list stale entries.

    A baseline entry absorbs at most one finding (fingerprints already
    carry an occurrence index, so duplicates need duplicate entries).
    """
    if baseline is None:
        return list(findings), [], []
    unused = baseline.fingerprints()
    new: List[Finding] = []
    accepted: List[Finding] = []
    for finding in findings:
        if unused.pop(fingerprint(finding), None) is None:
            new.append(finding)
        else:
            accepted.append(finding)
    stale = sorted(
        unused.values(), key=lambda e: (e.path, e.rule, e.fingerprint)
    )
    return new, accepted, stale
