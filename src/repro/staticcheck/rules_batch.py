"""BATCH rules: keep the vectorized engine actually vectorized.

The whole point of :mod:`repro.batch` is that per-run work happens as
numpy array operations over the batch axis.  A Python ``for`` loop that
indexes arrays element-by-element silently reintroduces the scalar
bottleneck the engine exists to remove -- the code stays correct, the
100x throughput disappears, and nothing fails.  This rule makes that
regression a lint error instead of a perf mystery.

* BATCH001 -- inside ``repro.batch`` (excluding ``replay.py``, the
  scalar differential bridge, which replays one run at a time by
  design), flag ``for`` statements whose body subscripts anything with
  the loop variable as the leading index (``decisions[i]``,
  ``faulty[i, pid]``): a data-dependent Python loop over the batch
  axis.  Vectorize with numpy instead; genuinely cold paths (e.g.
  formatting the few violating runs for a report) carry a
  ``# repro: noqa[BATCH001]`` justification on the loop line.

Deliberately scalar code that stays: per-run seed derivation
(:func:`repro.batch.prng.run_seeds`) is a comprehension that finishes
one SHA-256 per run from the sweep seed's shared hash state --
required for run-by-run attribution, not a batch-axis array walk --
and comprehensions are out of scope for the rule.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.staticcheck.engine import FileContext, Finding, Rule, register_rule

__all__ = ["BatchAxisLoopRule"]


def _target_names(target: ast.expr) -> Set[str]:
    """Plain names bound by a loop target (``i``, ``(i, j)``)."""
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        names: Set[str] = set()
        for element in target.elts:
            names |= _target_names(element)
        return names
    return set()


def _leading_index_name(subscript: ast.Subscript) -> Set[str]:
    """Names used as the leading subscript index (``x[i]``, ``x[i, j]``)."""
    index = subscript.slice
    if isinstance(index, ast.Tuple) and index.elts:
        index = index.elts[0]
    if isinstance(index, ast.Name):
        return {index.id}
    return set()


@register_rule
class BatchAxisLoopRule(Rule):
    """BATCH001: no data-dependent Python loops over the batch axis."""

    rule_id = "BATCH001"
    severity = "error"
    summary = (
        "a Python for-loop in repro.batch subscripts arrays with its "
        "loop variable, reintroducing the per-run scalar bottleneck the "
        "vectorized engine exists to remove"
    )
    scopes = ("batch",)

    def applies_to(self, path: str) -> bool:
        if not super().applies_to(path):
            return False
        # replay.py is the scalar differential bridge: it executes one
        # planned run at a time through the discrete-event kernel, so
        # per-run loops are its job, not a regression.
        return path.replace("\\", "/").split("/")[-1] != "replay.py"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.For):
                continue
            loop_vars = _target_names(node.target)
            if not loop_vars:
                continue
            for child in ast.walk(node):
                if child is node or not isinstance(child, ast.Subscript):
                    continue
                if isinstance(child.ctx, ast.Store):
                    continue
                hit = _leading_index_name(child) & loop_vars
                if hit:
                    yield self.finding(
                        ctx, node,
                        f"loop indexes arrays per element "
                        f"({ast.unparse(child)}); vectorize over the "
                        f"batch axis with numpy operations, or justify a "
                        f"cold path with `# repro: noqa[BATCH001]`",
                    )
                    break
