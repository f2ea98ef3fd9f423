"""PROTO rules: protocol-conformance checks.

* PROTO001 -- decide-once irrevocability.  ``ctx.decide`` /
  ``yield Decide(..)`` is irrevocable (the kernel raises on a second
  decide), so any *path* through a handler that can reach two decide
  sites is a latent :class:`~repro.runtime.process.ProtocolError`.
  The analysis is per-function and path-sensitive enough for protocol
  code: exclusive ``if``/``else`` branches are fine, a decide followed
  by ``return``/``raise``/``break`` is fine, and the
  flag-guard idiom (``if not done: done = True; decide(..)``) is
  recognised; everything else that can fall through to a second
  decide is flagged, as is a decide that can repeat across loop
  iterations.
* PROTO002 -- every registered :class:`ProtocolSpec` must declare its
  claimed ``(k, t, C)`` region with literal ``name``/``validity``/
  ``lemma``/``model`` keywords, and the declaration must match the
  paper's claimed-regions table (:func:`repro.paper.claimed_region`).
  This is the static analogue of rejecting an unsolvable
  ``SC(k, t, C)`` claim from the necessary conditions alone.
* PROTO003 -- every ``Process`` subclass in the protocols package is
  either enrolled in the paper table or deliberately exempt (baseline
  it with a justification; the ablation variants are the intended
  examples).
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Iterator, List, Optional, Sequence

from repro.staticcheck.engine import (
    FileContext,
    Finding,
    Rule,
    dotted_name,
    register_rule,
)

__all__ = [
    "DecideEvent",
    "DecideOnceRule",
    "DecidePathScanner",
    "SpecClaimRule",
    "UnclaimedProcessRule",
    "decide_calls",
]

_DECIDE_ATTRS = frozenset({"decide"})
_DECIDE_NAMES = frozenset({"Decide"})


def decide_calls(node: ast.AST) -> List[ast.Call]:
    """Literal decide events inside one expression/statement subtree."""
    calls = []
    for child in ast.walk(node):
        if not isinstance(child, ast.Call):
            continue
        func = child.func
        if isinstance(func, ast.Attribute) and func.attr in _DECIDE_ATTRS:
            calls.append(child)
        elif isinstance(func, ast.Name) and func.id in _DECIDE_NAMES:
            calls.append(child)
    return calls


@dataclasses.dataclass
class DecideEvent:
    """One decide occurrence on a path.

    ``payload`` is opaque to the scanner; PROTO001 leaves it ``None``
    (a literal decide call), FLOW002 attaches the helper function a
    call resolves into so interprocedural events are distinguishable.
    """

    node: ast.AST
    payload: object = None


@dataclasses.dataclass
class _SuiteInfo:
    """What a statement (or suite) does with respect to deciding."""

    has_decide: bool = False
    falls_through: bool = False  # may complete normally *after* deciding
    first_event: Optional[DecideEvent] = None


def _flag_guarded(node: ast.If) -> bool:
    """The ``if not done: done = True; ... decide(..)`` latch idiom.

    Both local flags (``done``) and instance-attribute flags
    (``self._done``) latch; so does a test on a ``.decided`` property.
    """
    for sub in ast.walk(node.test):
        if (
            isinstance(sub, ast.Attribute)
            and sub.attr == "decided"
        ):
            return True
    guards = {
        guard
        for sub in ast.walk(node.test)
        if isinstance(sub, ast.UnaryOp)
        and isinstance(sub.op, ast.Not)
        and (guard := dotted_name(sub.operand)) is not None
    }
    if not guards:
        return False
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if dotted_name(target) in guards:
                    return True
    return False


class DecidePathScanner:
    """Path-sensitive decide-once scan over one function body.

    Parameterised over what counts as a decide event so both PROTO001
    (literal ``ctx.decide``/``Decide`` calls) and FLOW002 (those plus
    calls into helpers that may decide, via the call graph) share one
    path analysis.  ``report(kind, earlier, event)`` is invoked with
    ``kind`` ``"path"`` (a second decide reachable after an earlier one)
    or ``"loop"`` (a decide that can repeat across iterations);
    ``earlier`` is the suite's first event where known.
    """

    def __init__(self, events_of, report) -> None:
        self._events_of = events_of
        self._report = report

    def scan_function(self, node: ast.AST) -> None:
        self._scan_suite(node.body, in_loop=False)

    # -- path analysis -----------------------------------------------------

    def _scan_suite(
        self, stmts: Sequence[ast.stmt], in_loop: bool
    ) -> _SuiteInfo:
        info = _SuiteInfo()
        live = False
        for stmt in stmts:
            stmt_info = self._scan_stmt(stmt, in_loop)
            if stmt_info.has_decide:
                info.has_decide = True
                if info.first_event is None:
                    info.first_event = stmt_info.first_event
                if live and stmt_info.first_event is not None:
                    self._report(
                        "path", info.first_event, stmt_info.first_event
                    )
            if stmt_info.has_decide and stmt_info.falls_through:
                live = True
            if isinstance(stmt, (ast.Return, ast.Raise)):
                live = False  # the path ends here; no fall-through
                break
            if in_loop and isinstance(stmt, ast.Break):
                live = False  # exits the loop; cannot re-decide
                break
            if in_loop and isinstance(stmt, ast.Continue):
                break  # live preserved: the next iteration may re-decide
        info.falls_through = live
        return info

    def _scan_stmt(self, stmt: ast.stmt, in_loop: bool) -> _SuiteInfo:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return _SuiteInfo()  # nested defs are scanned independently
        if isinstance(stmt, (ast.Return, ast.Raise)):
            events = self._events_of(stmt)
            return _SuiteInfo(
                has_decide=bool(events),
                falls_through=False,
                first_event=events[0] if events else None,
            )
        if isinstance(stmt, ast.If):
            body = self._scan_suite(stmt.body, in_loop)
            orelse = self._scan_suite(stmt.orelse, in_loop)
            test_events = self._events_of(stmt.test)
            if body.has_decide and _flag_guarded(stmt):
                body = _SuiteInfo()  # latched: fires at most once
            return _SuiteInfo(
                has_decide=(
                    body.has_decide or orelse.has_decide
                    or bool(test_events)
                ),
                falls_through=(
                    body.falls_through or orelse.falls_through
                    or bool(test_events)
                ),
                first_event=(
                    (test_events[0] if test_events else None)
                    or body.first_event or orelse.first_event
                ),
            )
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            inner = self._scan_suite(stmt.body, in_loop=True)
            if inner.has_decide and inner.falls_through:
                self._report("loop", inner.first_event, inner.first_event)
            orelse = self._scan_suite(stmt.orelse, in_loop)
            return _SuiteInfo(
                has_decide=inner.has_decide or orelse.has_decide,
                falls_through=inner.has_decide or orelse.falls_through,
                first_event=inner.first_event or orelse.first_event,
            )
        if isinstance(stmt, ast.Try):
            suites = [
                self._scan_suite(stmt.body, in_loop),
                self._scan_suite(stmt.orelse, in_loop),
                self._scan_suite(stmt.finalbody, in_loop),
            ]
            suites.extend(
                self._scan_suite(handler.body, in_loop)
                for handler in stmt.handlers
            )
            return _SuiteInfo(
                has_decide=any(s.has_decide for s in suites),
                falls_through=any(s.falls_through for s in suites),
                first_event=next(
                    (s.first_event for s in suites if s.first_event),
                    None,
                ),
            )
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._scan_suite(stmt.body, in_loop)
        events = self._events_of(stmt)
        return _SuiteInfo(
            has_decide=bool(events),
            falls_through=bool(events),
            first_event=events[0] if events else None,
        )


@register_rule
class DecideOnceRule(Rule):
    """PROTO001: no path through a handler decides twice."""

    rule_id = "PROTO001"
    severity = "error"
    summary = (
        "a decision is irrevocable; a path that can reach two "
        "decide sites raises ProtocolError at run time"
    )
    scopes = ("protocols",)

    _MESSAGES = {
        "path": (
            "this decide is reachable after an earlier decide on the "
            "same path"
        ),
        "loop": (
            "a decide inside this loop can execute on more than one "
            "iteration; decide then return/break"
        ),
    }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        found: List[Finding] = []

        def report(
            kind: str,
            earlier: Optional[DecideEvent],
            event: Optional[DecideEvent],
        ) -> None:
            node = event.node if event is not None else ctx.tree
            found.append(self.finding(ctx, node, self._MESSAGES[kind]))

        def events_of(node: ast.AST) -> List[DecideEvent]:
            return [DecideEvent(call) for call in decide_calls(node)]

        scanner = DecidePathScanner(events_of, report)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scanner.scan_function(node)
        yield from found


def _spec_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name and name.split(".")[-1] == "ProtocolSpec":
            yield node


def _literal_kwarg(call: ast.Call, key: str) -> Optional[str]:
    for kw in call.keywords:
        if kw.arg == key:
            if isinstance(kw.value, ast.Constant) and isinstance(
                kw.value.value, str
            ):
                return kw.value.value
            return None
    return None


def _model_kwarg(call: ast.Call) -> Optional[str]:
    """The ``Model.X`` attribute name of the ``model=`` keyword."""
    for kw in call.keywords:
        if kw.arg == "model":
            name = dotted_name(kw.value)
            if name and name.split(".")[-2:-1] == ["Model"]:
                return name.split(".")[-1]
            return None
    return None


@register_rule
class SpecClaimRule(Rule):
    """PROTO002: spec claims must match the paper's claimed regions."""

    rule_id = "PROTO002"
    severity = "error"
    summary = (
        "every ProtocolSpec must declare its claimed (k, t, C) region "
        "with literal name/validity/lemma/model keywords matching "
        "repro.paper.CLAIMED_REGIONS"
    )
    scopes = ("protocols",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        from repro.paper import claimed_region_by_spec

        for call in _spec_calls(ctx.tree):
            name = _literal_kwarg(call, "name")
            validity = _literal_kwarg(call, "validity")
            lemma = _literal_kwarg(call, "lemma")
            model_attr = _model_kwarg(call)
            if name is None or validity is None or lemma is None:
                yield self.finding(
                    ctx, call,
                    "ProtocolSpec must declare literal name=, validity= "
                    "and lemma= keywords so the claim is statically "
                    "checkable",
                )
                continue
            claim = claimed_region_by_spec(name)
            if claim is None:
                yield self.finding(
                    ctx, call,
                    f"spec {name!r} is not declared in the paper's "
                    f"claimed-regions table (repro.paper.CLAIMED_REGIONS)",
                )
                continue
            mismatches = []
            if validity != claim.validity:
                mismatches.append(
                    f"validity={validity!r} (paper claims "
                    f"{claim.validity!r})"
                )
            if lemma != claim.lemma:
                mismatches.append(
                    f"lemma={lemma!r} (paper claims {claim.lemma!r})"
                )
            if model_attr is not None and model_attr != claim.model_attr:
                mismatches.append(
                    f"model=Model.{model_attr} (paper claims "
                    f"Model.{claim.model_attr})"
                )
            if mismatches:
                yield self.finding(
                    ctx, call,
                    f"spec {name!r} disagrees with the paper table: "
                    + "; ".join(mismatches),
                )


@register_rule
class UnclaimedProcessRule(Rule):
    """PROTO003: Process subclasses must be enrolled in the paper table."""

    rule_id = "PROTO003"
    severity = "warning"
    summary = (
        "a Process subclass in the protocols package has no entry in "
        "repro.paper.CLAIMED_REGIONS; register its claim, or baseline "
        "it with a justification if it is a deliberate non-claim "
        "(e.g. an ablation)"
    )
    scopes = ("protocols",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        from repro.paper import claimed_protocol_symbols

        claimed = claimed_protocol_symbols()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(
                (base_name := dotted_name(base))
                and base_name.split(".")[-1] == "Process"
                for base in node.bases
            ):
                continue
            if node.name in claimed:
                continue
            yield self.finding(
                ctx, node,
                f"Process subclass {node.name} declares no claimed "
                f"(k, t, C) region in repro.paper.CLAIMED_REGIONS",
            )
