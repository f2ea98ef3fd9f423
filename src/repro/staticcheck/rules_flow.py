"""FLOW rules: whole-program checks over the call graph.

Unlike the per-file rules, these see the entire program
(:class:`~repro.staticcheck.callgraph.Program`) and the fixpoint taint
facts (:class:`~repro.staticcheck.flow.FlowAnalysis`):

* FLOW001 -- interprocedural nondeterminism taint: a source (wall
  clock, global RNG, OS entropy, ``id()``, unordered iteration order)
  whose value crosses at least one call boundary before reaching a
  replay-path sink (decision site, message payload, scheduler pick,
  batch-plan builder).  Purely intra-function flows are left to
  DET001-003; FLOW001 exists for exactly the laundering those rules
  cannot see.  The finding carries the full source-to-sink chain.
* FLOW002 -- decide-once across helper calls: PROTO001's path
  analysis, re-run with "calls a helper that may decide" as an
  additional decide event.  Only paths involving at least one helper
  call are reported here (the intra-function case is PROTO001's).
  Helpers whose every decide is flag-latched are *guarded* and do not
  count as events -- calling them twice is safe.
* FLOW003 -- the :mod:`repro.jobs` lease automaton: every store
  transition call site must statically conform to
  pending --lease--> leased --complete--> done / --fail--> failed.
  Completing a shard that was never leased, transitioning the same
  shard handle twice, or discarding the result of ``lease()`` are the
  static shadows of the races chaos testing only catches
  probabilistically.

The rules register in the ordinary rule registry (so ``--explain``,
SARIF metadata and noqa hygiene know them) but their per-file
``check`` is a no-op; :func:`check_program` is the entry point the
runner calls unless ``--no-flow`` is given.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.staticcheck.callgraph import (
    FunctionInfo,
    ModuleInfo,
    Program,
)
from repro.staticcheck.engine import (
    FileContext,
    Finding,
    Rule,
    TraceStep,
    _number_occurrences,
    dotted_name,
    register_rule,
)
from repro.staticcheck.flow import SOURCE_KINDS, FlowAnalysis, Taint
from repro.staticcheck.rules_proto import (
    DecideEvent,
    DecidePathScanner,
    _flag_guarded,
    decide_calls,
)

__all__ = [
    "FlowRule",
    "InterproceduralDecideOnceRule",
    "InterproceduralTaintRule",
    "LeaseAutomatonRule",
    "check_program",
    "flow_rules",
]


class FlowRule(Rule):
    """A program-level rule; the per-file pass never runs it."""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())

    def check_program(
        self, program: Program, analysis: FlowAnalysis
    ) -> Iterator[Finding]:
        raise NotImplementedError


def flow_rules() -> Tuple[FlowRule, ...]:
    """Every registered program-level rule."""
    from repro.staticcheck.engine import all_rules

    return tuple(r for r in all_rules() if isinstance(r, FlowRule))


def check_program(
    paths,
    root: Optional[str] = None,
    program: Optional[Program] = None,
) -> List[Finding]:
    """Run every FLOW rule over the whole program under ``paths``.

    Findings honour ``# repro: noqa`` on the sink line exactly like
    per-file findings, and get occurrence numbers so baseline
    fingerprints stay stable.  FLOW rule ids never fire in the
    per-file pass, so the two result sets merge without collisions.
    """
    if program is None:
        program = Program.load(paths, root)
    analysis = FlowAnalysis(program).run()
    findings: List[Finding] = []
    for rule in flow_rules():
        findings.extend(rule.check_program(program, analysis))
    kept: List[Finding] = []
    for finding in findings:
        module = program.by_path.get(finding.path)
        if module is not None and module.ctx.suppressed(
            finding.rule_id, finding.line, finding.end_line
        ):
            continue
        kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return _number_occurrences(kept)


# ---------------------------------------------------------------------------
# FLOW001


@register_rule
class InterproceduralTaintRule(FlowRule):
    """FLOW001: nondeterminism laundered through calls into a sink."""

    rule_id = "FLOW001"
    severity = "error"
    summary = (
        "a nondeterminism source (wall clock, global RNG, OS entropy, "
        "id(), unordered iteration order) flows through one or more "
        "calls into a decision site, message payload, scheduler pick "
        "or batch-plan builder; route it through a seeded scheduler "
        "(the finding lists the full source-to-sink chain)"
    )

    def check_program(
        self, program: Program, analysis: FlowAnalysis
    ) -> Iterator[Finding]:
        found: List[Finding] = []

        def report(
            fn: FunctionInfo, node: ast.AST, sink: str, taint: Taint
        ) -> None:
            # Chains of length 1 never crossed a function boundary;
            # the DET rules own those.
            if len(taint.chain) < 2:
                return
            sink_step = TraceStep(
                path=fn.module.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                note=f"reaches {sink}",
            )
            found.append(
                self.finding(
                    fn.module.ctx,
                    node,
                    self._message(taint, sink),
                    trace=taint.chain + (sink_step,),
                )
            )

        analysis.scan_sinks(report)
        found.extend(self._pick_returns(program, analysis))
        yield from found

    def _message(self, taint: Taint, sink: str) -> str:
        hops = len(taint.chain) - 1
        return (
            f"{SOURCE_KINDS[taint.kind]} reaches {sink} through "
            f"{hops} call hop{'s' if hops != 1 else ''}; replay "
            f"requires all nondeterminism to come from the seeded "
            f"scheduler"
        )

    def _pick_returns(
        self, program: Program, analysis: FlowAnalysis
    ) -> Iterator[Finding]:
        """A scheduler ``pick`` whose return value is tainted."""
        for fn in program.all_functions():
            if fn.name != "pick" or not fn.is_method:
                continue
            summary = analysis.summary(fn)
            taint = summary.returns
            if taint is None or len(taint.chain) < 2:
                continue
            sink_step = TraceStep(
                path=fn.module.path,
                line=getattr(fn.node, "lineno", 1),
                col=getattr(fn.node, "col_offset", 0) + 1,
                note=f"returned from scheduler {fn.qualname}()",
            )
            yield self.finding(
                fn.module.ctx,
                fn.node,
                self._message(taint, "a scheduler pick"),
                trace=taint.chain + (sink_step,),
            )


# ---------------------------------------------------------------------------
# FLOW002

_MAY = "may"
_GUARDED = "guarded"
_NONE = "none"


class _DecideStatus:
    """Per-function decide facts for the interprocedural closure."""

    def __init__(
        self, status: str, site: Tuple[TraceStep, ...] = ()
    ) -> None:
        self.status = status
        self.site = site  # chain from function entry to a decide call


@register_rule
class InterproceduralDecideOnceRule(FlowRule):
    """FLOW002: decide-once proven across helper calls."""

    rule_id = "FLOW002"
    severity = "error"
    summary = (
        "a path through a handler can decide twice once helper calls "
        "are followed; PROTO001 sees only literal decide calls, this "
        "rule also counts calls into helpers that may decide "
        "(flag-latched helpers are safe and do not count)"
    )
    scopes = ("protocols",)

    _MESSAGES = {
        "path": (
            "this {what} is reachable after an earlier decide on the "
            "same path (decide-once violated across helper calls)"
        ),
        "loop": (
            "a {what} inside this loop can execute on more than one "
            "iteration; decide then return/break"
        ),
    }

    def check_program(
        self, program: Program, analysis: FlowAnalysis
    ) -> Iterator[Finding]:
        status = self._decide_closure(program)
        for module in program.modules.values():
            if not self.applies_to(module.path):
                continue
            for fn in module.all_functions():
                yield from self._scan_function(program, fn, status)

    # -- closure -------------------------------------------------------

    def _decide_closure(
        self, program: Program
    ) -> Dict[str, _DecideStatus]:
        """may/guarded/none decide status, closed over the call graph."""
        status: Dict[str, _DecideStatus] = {}
        for fn in program.all_functions():
            status[fn.qualname] = self._direct_status(fn)
        for _ in range(len(status) + 1):
            changed = False
            for fn in program.all_functions():
                mine = status[fn.qualname]
                if mine.status == _MAY:
                    continue
                for call in _scope_calls(fn.node):
                    if _is_literal_decide(call):
                        continue
                    target = program.resolve_call(fn, call)
                    if target is None:
                        continue
                    theirs = status.get(target.qualname)
                    if theirs is None or theirs.status != _MAY:
                        continue
                    step = _call_step(fn.module, call, target)
                    status[fn.qualname] = _DecideStatus(
                        _MAY, (step,) + theirs.site
                    )
                    changed = True
                    break
            if not changed:
                break
        return status

    def _direct_status(self, fn: FunctionInfo) -> _DecideStatus:
        """Decide status from literal decide calls in one body."""
        found = {"status": _NONE, "site": ()}

        def visit(stmt: ast.stmt, guarded: bool) -> None:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                return
            if isinstance(stmt, ast.If):
                here = guarded or _flag_guarded(stmt)
                for call in decide_calls(stmt.test):
                    record(call, guarded)
                for child in stmt.body:
                    visit(child, here)
                for child in stmt.orelse:
                    visit(child, guarded)
                return
            for field in stmt._fields:
                value = getattr(stmt, field, None)
                nodes = value if isinstance(value, list) else [value]
                for node in nodes:
                    if isinstance(node, ast.stmt):
                        visit(node, guarded)
                    elif isinstance(node, ast.excepthandler):
                        for child in node.body:
                            visit(child, guarded)
                    elif isinstance(node, ast.AST):
                        for call in decide_calls(node):
                            record(call, guarded)

        def record(call: ast.Call, guarded: bool) -> None:
            if not guarded:
                found["status"] = _MAY
            elif found["status"] == _NONE:
                found["status"] = _GUARDED
            if not found["site"]:
                found["site"] = (
                    TraceStep(
                        path=fn.module.path,
                        line=getattr(call, "lineno", 1),
                        col=getattr(call, "col_offset", 0) + 1,
                        note=f"decides here, in {fn.qualname}()",
                    ),
                )

        for stmt in fn.node.body:
            visit(stmt, guarded=False)
        return _DecideStatus(found["status"], tuple(found["site"]))

    # -- per-function scan ---------------------------------------------

    def _scan_function(
        self,
        program: Program,
        fn: FunctionInfo,
        status: Dict[str, _DecideStatus],
    ) -> Iterator[Finding]:
        found: List[Finding] = []

        def events_of(node: ast.AST) -> List[DecideEvent]:
            events: List[DecideEvent] = []
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                if _is_literal_decide(call):
                    events.append(DecideEvent(call))
                    continue
                target = program.resolve_call(fn, call)
                if target is None:
                    continue
                theirs = status.get(target.qualname)
                if theirs is not None and theirs.status == _MAY:
                    events.append(DecideEvent(call, (target, theirs.site)))
            return events

        def report(
            kind: str,
            earlier: Optional[DecideEvent],
            event: Optional[DecideEvent],
        ) -> None:
            if event is None:
                return
            involved = [
                e for e in (earlier, event)
                if e is not None and e.payload is not None
            ]
            if not involved:
                return  # purely literal decides: PROTO001's case
            target, site = event.payload if event.payload else (None, ())
            what = (
                f"call into {target.qualname}(), which may decide,"
                if target is not None
                else "decide"
            )
            trace: List[TraceStep] = []
            if earlier is not None and earlier is not event:
                trace.append(_event_step(fn.module, earlier, "first"))
            trace.append(_event_step(fn.module, event, "second"))
            if event.payload is not None:
                trace.extend(event.payload[1])
            elif earlier is not None and earlier.payload is not None:
                trace.extend(earlier.payload[1])
            found.append(
                self.finding(
                    fn.module.ctx,
                    event.node,
                    self._MESSAGES[kind].format(what=what),
                    trace=tuple(trace),
                )
            )

        DecidePathScanner(events_of, report).scan_function(fn.node)
        yield from found


def _is_literal_decide(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "decide":
        return True
    return isinstance(func, ast.Name) and func.id == "Decide"


def _scope_calls(fn_node: ast.AST) -> Iterator[ast.Call]:
    """Call expressions in one function body, skipping nested defs."""

    def from_stmt(stmt: ast.stmt) -> Iterator[ast.Call]:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return
        for field in stmt._fields:
            value = getattr(stmt, field, None)
            nodes = value if isinstance(value, list) else [value]
            for node in nodes:
                if isinstance(node, ast.stmt):
                    yield from from_stmt(node)
                elif isinstance(node, ast.excepthandler):
                    for child in node.body:
                        yield from from_stmt(child)
                elif isinstance(node, ast.AST):
                    for call in ast.walk(node):
                        if isinstance(call, ast.Call):
                            yield call

    for stmt in fn_node.body:
        yield from from_stmt(stmt)


def _call_step(
    module: ModuleInfo, call: ast.Call, target: FunctionInfo
) -> TraceStep:
    return TraceStep(
        path=module.path,
        line=getattr(call, "lineno", 1),
        col=getattr(call, "col_offset", 0) + 1,
        note=f"calls {target.qualname}(), which may decide",
    )


def _event_step(
    module: ModuleInfo, event: DecideEvent, ordinal: str
) -> TraceStep:
    if event.payload is not None:
        target = event.payload[0]
        note = f"{ordinal} decide event: call into {target.qualname}()"
    else:
        note = f"{ordinal} decide event: literal decide"
    return TraceStep(
        path=module.path,
        line=getattr(event.node, "lineno", 1),
        col=getattr(event.node, "col_offset", 0) + 1,
        note=note,
    )


# ---------------------------------------------------------------------------
# FLOW003

#: store method -> state its result list's elements are in
_PRODUCERS = {"lease": "leased", "release_expired": "pending"}
#: store method -> state a shard is in after the call succeeds
_TERMINAL = {"complete": "done", "fail": "failed"}
_STATES = ("pending", "leased", "done", "failed")


@register_rule
class LeaseAutomatonRule(FlowRule):
    """FLOW003: store transitions follow pending->leased->done/failed."""

    rule_id = "FLOW003"
    severity = "error"
    summary = (
        "every repro.jobs store transition call site must conform to "
        "the lease automaton pending->leased->done/failed: no "
        "complete()/fail() on a shard that was not leased in this "
        "scope, no second terminal transition on the same handle, no "
        "discarded lease() result"
    )

    def check_program(
        self, program: Program, analysis: FlowAnalysis
    ) -> Iterator[Finding]:
        for module in program.modules.values():
            if not self._in_scope(module):
                continue
            for node in ast.walk(module.tree):
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    yield from self._scan(module, node)

    def _in_scope(self, module: ModuleInfo) -> bool:
        if "jobs" in module.path.split("/"):
            return True
        imported = list(module.imports.module_aliases.values()) + list(
            module.imports.from_imports.values()
        )
        return any(
            name == "repro.jobs" or name.startswith("repro.jobs.")
            for name in imported
        )

    # -- abstract interpretation over one function ---------------------

    def _scan(
        self, module: ModuleInfo, fn_node: ast.AST
    ) -> Iterator[Finding]:
        found: List[Finding] = []
        env: Dict[str, Tuple[str, TraceStep]] = {}
        self._scan_suite(module, fn_node.body, env, found)
        yield from found

    def _scan_suite(
        self,
        module: ModuleInfo,
        stmts: List[ast.stmt],
        env: Dict[str, Tuple[str, TraceStep]],
        found: List[Finding],
    ) -> None:
        for stmt in stmts:
            self._scan_stmt(module, stmt, env, found)

    def _scan_stmt(
        self,
        module: ModuleInfo,
        stmt: ast.stmt,
        env: Dict[str, Tuple[str, TraceStep]],
        found: List[Finding],
    ) -> None:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return  # nested defs scanned separately
        if isinstance(stmt, ast.Expr):
            if self._store_method(stmt.value) == "lease":
                found.append(
                    self.finding(
                        module.ctx,
                        stmt.value,
                        "the result of lease() is discarded; the "
                        "leased shards can never be completed or "
                        "failed by this caller and must wait out the "
                        "lease timeout",
                    )
                )
                return
            self._transition_in(module, stmt.value, env, found)
            return
        if isinstance(stmt, ast.Assign):
            state = self._produced_state(stmt.value)
            self._transition_in(module, stmt.value, env, found)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    if state is not None:
                        env[target.id] = (
                            state,
                            self._step(
                                module,
                                stmt.value,
                                f"shards in state "
                                f"'{state.split('-')[0]}' originate "
                                f"here",
                            ),
                        )
                    else:
                        env.pop(target.id, None)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._transition_in(module, stmt.iter, env, found)
            element = self._element_state(module, stmt.iter, env)
            body_env = dict(env)
            if element is not None and isinstance(stmt.target, ast.Name):
                body_env[stmt.target.id] = element
            elif isinstance(stmt.target, ast.Name):
                body_env.pop(stmt.target.id, None)
            self._scan_suite(module, stmt.body, body_env, found)
            self._scan_suite(module, stmt.orelse, env, found)
            self._merge(env, [body_env])
            return
        if isinstance(stmt, ast.If):
            self._transition_in(module, stmt.test, env, found)
            body_env = dict(env)
            else_env = dict(env)
            self._scan_suite(module, stmt.body, body_env, found)
            self._scan_suite(module, stmt.orelse, else_env, found)
            env.clear()
            merged = self._merged([body_env, else_env])
            env.update(merged)
            return
        if isinstance(stmt, ast.While):
            self._transition_in(module, stmt.test, env, found)
            body_env = dict(env)
            self._scan_suite(module, stmt.body, body_env, found)
            self._scan_suite(module, stmt.orelse, env, found)
            self._merge(env, [body_env])
            return
        if isinstance(stmt, ast.Try):
            branch_envs = []
            body_env = dict(env)
            self._scan_suite(module, stmt.body, body_env, found)
            branch_envs.append(body_env)
            for handler in stmt.handlers:
                handler_env = dict(env)
                self._scan_suite(module, handler.body, handler_env, found)
                branch_envs.append(handler_env)
            env.clear()
            env.update(self._merged(branch_envs))
            self._scan_suite(module, stmt.orelse, env, found)
            self._scan_suite(module, stmt.finalbody, env, found)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._transition_in(
                    module, item.context_expr, env, found
                )
            self._scan_suite(module, stmt.body, env, found)
            return
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            self._transition_in(module, stmt.value, env, found)
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._transition_in(module, child, env, found)

    # -- store-call recognition ----------------------------------------

    def _store_method(self, node: ast.AST) -> Optional[str]:
        """Store method name if ``node`` is a store call, else None."""
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if not isinstance(func, ast.Attribute):
            return None
        receiver = dotted_name(func.value)
        if receiver is None:
            return None
        last = receiver.split(".")[-1].lower()
        if "store" not in last:
            return None
        return func.attr

    def _produced_state(self, node: ast.AST) -> Optional[str]:
        method = self._store_method(node)
        if method in _PRODUCERS:
            return _PRODUCERS[method] + "-list"
        if method == "shards":
            state = self._shards_state_arg(node)
            if state is not None:
                return state + "-list"
        return None

    def _shards_state_arg(self, call: ast.Call) -> Optional[str]:
        node: Optional[ast.AST] = None
        if len(call.args) >= 2:
            node = call.args[1]
        for kw in call.keywords:
            if kw.arg == "state":
                node = kw.value
        if node is None:
            return None
        name = dotted_name(node)
        text = (
            name.split(".")[-1]
            if name is not None
            else (
                node.value
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                else ""
            )
        )
        lowered = str(text).lower()
        return lowered if lowered in _STATES else None

    def _element_state(
        self,
        module: ModuleInfo,
        node: ast.AST,
        env: Dict[str, Tuple[str, TraceStep]],
    ) -> Optional[Tuple[str, TraceStep]]:
        """State of elements when iterating ``node``."""
        produced = self._produced_state(node)
        if produced is not None and produced.endswith("-list"):
            state = produced[: -len("-list")]
            return (
                state,
                self._step(
                    module,
                    node,
                    f"shards in state '{state}' originate here",
                ),
            )
        if isinstance(node, ast.Name):
            entry = env.get(node.id)
            if entry is not None and entry[0].endswith("-list"):
                return (entry[0][: -len("-list")], entry[1])
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple", "sorted", "reversed")
            and node.args
        ):
            return self._element_state(module, node.args[0], env)
        return None

    # -- transitions ---------------------------------------------------

    def _transition_in(
        self,
        module: ModuleInfo,
        node: ast.AST,
        env: Dict[str, Tuple[str, TraceStep]],
        found: List[Finding],
    ) -> None:
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                self._transition(module, child, env, found)

    def _transition(
        self,
        module: ModuleInfo,
        call: ast.AST,
        env: Dict[str, Tuple[str, TraceStep]],
        found: List[Finding],
    ) -> None:
        method = self._store_method(call)
        if method not in _TERMINAL:
            return
        shard_arg = self._shard_arg(call)
        if shard_arg is None:
            return
        key = self._tracked_name(shard_arg)
        if key is None:
            return
        entry = env.get(key)
        if entry is None:
            return  # unknown origin: never guessed at
        state, origin = entry
        if state.endswith("-list"):
            state = state[: -len("-list")]
            verb = f"{method}() on a whole shard *list*"
        else:
            verb = f"{method}()"
        if state == "leased":
            env[key] = (_TERMINAL[method], self._step(
                module, call, f"transitioned by {method}() here"
            ))
            return
        if state in ("done", "failed"):
            message = (
                f"{verb} on a shard handle already transitioned to "
                f"'{state}'; the second transition is a no-op at best "
                f"and masks a lost update at worst"
            )
        else:
            message = (
                f"{verb} on a shard in state '{state}'; the lease "
                f"automaton requires pending->leased->done/failed "
                f"(lease it first)"
            )
        found.append(
            self.finding(
                module.ctx,
                call,
                message,
                trace=(
                    origin,
                    self._step(
                        module, call, f"invalid {method}() transition"
                    ),
                ),
            )
        )

    def _shard_arg(self, call: ast.Call) -> Optional[ast.AST]:
        for kw in call.keywords:
            if kw.arg == "shard_id":
                return kw.value
        if len(call.args) >= 2:
            return call.args[1]
        return None

    def _tracked_name(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Name
        ):
            return node.value.id
        return None

    # -- env plumbing --------------------------------------------------

    def _merged(
        self, envs: List[Dict[str, Tuple[str, TraceStep]]]
    ) -> Dict[str, Tuple[str, TraceStep]]:
        """Keys that agree across every branch; disagreements drop."""
        if not envs:
            return {}
        merged = dict(envs[0])
        for other in envs[1:]:
            for key in list(merged):
                if key not in other or other[key][0] != merged[key][0]:
                    del merged[key]
        return merged

    def _merge(
        self,
        env: Dict[str, Tuple[str, TraceStep]],
        others: List[Dict[str, Tuple[str, TraceStep]]],
    ) -> None:
        merged = self._merged([env] + others)
        env.clear()
        env.update(merged)

    def _step(
        self, module: ModuleInfo, node: ast.AST, note: str
    ) -> TraceStep:
        return TraceStep(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            note=note,
        )
