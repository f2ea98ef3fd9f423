"""Command-line interface: ``python -m repro <subcommand>``.

``python -m repro --help`` lists the subcommands and ``python -m repro
<subcommand> --help`` their arguments.  Each subcommand is declared
once, by :func:`command` on its handler; an argument several
subcommands share is declared once below and used by name.

Examples::

    python -m repro classify --model MP/Byz --validity WV1 --n 64 --k 22 --t 21
    python -m repro panel --model SM/CR --validity SV2 --n 32
    python -m repro run chaudhuri@mp-cr --n 7 --k 3 --t 2
    python -m repro sweep protocol-f@sm-byz --n 7 --k 5 --t 3 --runs 50
    python -m repro construct --lemma "Lemma 3.3"
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.adversary.constructions import all_constructions
from repro.analysis.figures import panel_csv, render_figure, render_panel
from repro.analysis.lattice import render_lattice, verify_lattice
from repro.core.regions import region_map
from repro.core.solvability import classify
from repro.core.validity import by_code
from repro.harness.attack import search_worst_run
from repro.harness.runner import run_spec
from repro.harness.sweep import ENGINES, SweepConfig, sweep_spec
from repro.models import Model
from repro.protocols.base import all_specs, get_spec

__all__ = ["build_parser", "main"]

#: Adds one argument, or one argument group, to a subcommand's parser.
Declaration = Callable[[Any], object]
Handler = Callable[[argparse.Namespace], int]

#: Every subcommand, in ``--help`` order: name -> (help line, argument
#: declarations, handler returning the exit code).
_COMMANDS: Dict[str, Tuple[str, Tuple[Declaration, ...], Handler]] = {}


def arg(*flags: str, **options: Any) -> Declaration:
    """One ``add_argument`` call, declared once and made per subparser."""
    return lambda parser: parser.add_argument(*flags, **options)


def group(
    title: str, description: str, *arguments: Declaration
) -> Declaration:
    """Arguments listed under their own heading in ``--help``."""
    def add(parser):
        section = parser.add_argument_group(title, description)
        for declare in arguments:
            declare(section)
    return add


def command(name: str, help_line: str, *arguments: Declaration):
    """Register the decorated handler as subcommand ``name``."""
    def register(handler: Handler) -> Handler:
        _COMMANDS[name] = (help_line, arguments, handler)
        return handler
    return register


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="k-set consensus reproduction (De Prisco-Malkhi-Reiter).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, arguments, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for declare in arguments:
            declare(p)
        p.set_defaults(handler=handler)
    return parser


def count(text: str) -> int:
    """A count flag's value (``--runs``, ``--jobs``, ...): zero or more."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


MODEL = arg("--model", default="MP/CR", help="MP/CR MP/Byz SM/CR SM/Byz")
TABLE_N = arg("--n", type=int, default=64)
#: The region-table instance: a model, a validity condition and ``n``.
INSTANCE = (
    MODEL,
    arg("--validity", default="RV1", help="SV1 SV2 RV1 RV2 WV1 WV2"),
    TABLE_N,
)
K_T = (
    arg("--k", type=int, required=True),
    arg("--t", type=int, required=True),
)
#: The required point of the subcommands that run one protocol instance.
POINT = (arg("--n", type=int, required=True), *K_T)
INPUTS = arg("--inputs", nargs="*", default=None,
             help="input values (default: v0 v1 ...)")
SEED = arg("--seed", type=int, default=0)
VERIFY = arg("--verify", action="store_true",
             help="also judge executions with the repro.verify oracle stack")
ENGINE = arg("--engine", choices=ENGINES, default="scalar",
             help="execution engine: scalar discrete-event kernel (default) "
                  "or vectorized numpy batch engine; batch/auto fall back "
                  "to scalar for specs the batch engine does not model")
JOBS = arg("--jobs", type=count, default=1,
           help="worker processes (1 = serial, 0 = all cores); "
                "results are identical for any value")


def search_args(max_states: int) -> Tuple[Declaration, ...]:
    """The explorer flags ``exhaustive`` and ``certify`` share."""
    return (
        arg("--max-states", type=int, default=max_states,
            help="state budget per exploration; a search that hits it is "
                 "not exhaustive (certify marks the point INCONCLUSIVE)"),
        arg("--visited", choices=["exact", "compact"], default="exact",
            help="visited-state store: exact dict or 64-bit "
                 "hash-compacted digests"),
        arg("--stop-on-violation", action="store_true",
            help="abandon each exploration at its first violation"),
    )


@command("classify", "classify one SC(k, t, C) instance", *INSTANCE, *K_T)
def _cmd_classify(args) -> int:
    model = Model.from_shorthand(args.model)
    validity = by_code(args.validity)
    verdict = classify(model, validity, args.n, args.k, args.t)
    print(
        f"SC(k={args.k}, t={args.t}, {validity.code}) in {model} "
        f"(n={args.n}): {verdict}"
    )
    if verdict.note:
        print(f"  note: {verdict.note}")
    return 0


@command(
    "panel", "render one region panel",
    *INSTANCE, arg("--csv", action="store_true", help="frontier CSV output"),
)
def _cmd_panel(args) -> int:
    model = Model.from_shorthand(args.model)
    region = region_map(model, by_code(args.validity), args.n)
    print(panel_csv(region) if args.csv else render_panel(region))
    return 0


@command("figure", "render a full six-panel figure", MODEL, TABLE_N)
def _cmd_figure(args) -> int:
    print(render_figure(Model.from_shorthand(args.model), n=args.n))
    return 0


@command("lattice", "print and verify the Fig. 1 lattice")
def _cmd_lattice(args) -> int:
    print(render_lattice())
    check = verify_lattice()
    print(
        f"\nverified on {check.samples} random outcomes: "
        f"{'OK' if check.ok else 'FAILED'}"
    )
    return 0 if check.ok else 1


@command(
    "run", "run a registered protocol once",
    arg("spec", help="protocol spec name (see `protocols`)"),
    *POINT, INPUTS, VERIFY,
)
def _cmd_run(args) -> int:
    spec = get_spec(args.spec)
    inputs = args.inputs or [f"v{i}" for i in range(args.n)]
    report = run_spec(spec, args.n, args.k, args.t, inputs, verify=args.verify)
    print(f"protocol : {spec.title} ({spec.lemma})")
    print(f"decisions: {report.outcome.decisions}")
    print(f"verdicts : {report.summary()}")
    return 0 if report.ok else 1


@command(
    "sweep", "Monte-Carlo sweep at one point",
    arg("spec"), *POINT, arg("--runs", type=count, default=50),
    SEED, JOBS, ENGINE, VERIFY,
)
def _cmd_sweep(args) -> int:
    spec = get_spec(args.spec)
    stats = sweep_spec(
        spec, args.n, args.k, args.t,
        SweepConfig(runs=args.runs, seed=args.seed, verify=args.verify),
        jobs=args.jobs,
        engine=args.engine,
    )
    print(stats.summary())
    if stats.execution:
        print(f"  engine {stats.engine}: {stats.execution}")
    if stats.fallback_reason:
        print(f"  fallback reason: {stats.fallback_reason}")
    for violation in stats.violations[:10]:
        print(f"  !! run {violation.run_index} [{violation.pattern}]: "
              f"{violation.detail}")
    return 0 if stats.clean else 1


@command(
    "attack", "adversarial search for the worst run",
    arg("spec"), *POINT, arg("--attempts", type=count, default=200),
    SEED, JOBS, VERIFY,
    arg("--save-witness", default=None, metavar="PATH",
        help="record the winning attempt as a replayable witness file "
             "(crash-model specs only; the schedule is shrunk when it "
             "violates a safety oracle)"),
)
def _cmd_attack(args) -> int:
    spec = get_spec(args.spec)
    result = search_worst_run(
        spec, args.n, args.k, args.t,
        attempts=args.attempts, seed=args.seed, jobs=args.jobs,
        verify=args.verify,
    )
    print(result.summary())
    if result.best_report is not None:
        print(f"  worst decisions: {result.best_report.outcome.decisions}")
    if args.save_witness:
        import pathlib

        from repro.harness.attack import record_best_witness
        from repro.verify.witness import save_witness

        try:
            witness = record_best_witness(result)
        except ValueError as reason:
            print(f"  cannot save witness: {reason}")
            return 2
        save_witness(witness, pathlib.Path(args.save_witness))
        print(f"  witness: {args.save_witness} "
              f"({len(witness.choices)} choices, kind={witness.kind})")
    return 0 if not result.violations_found else 1


@command(
    "construct", "run impossibility constructions",
    arg("--lemma", default=None,
        help='restrict to one lemma, e.g. "Lemma 3.3"'),
)
def _cmd_construct(args) -> int:
    failures = 0
    for result in all_constructions():
        if args.lemma and result.lemma_id != args.lemma:
            continue
        status = "ok" if result.demonstrates_violation else "FAILED"
        print(f"[{status}] {result.summary()}")
        failures += not result.demonstrates_violation
    return 0 if not failures else 1


@command("protocols", "list the protocol registry")
def _cmd_protocols(args) -> int:
    for spec in all_specs():
        print(
            f"{spec.name:28s} {spec.model.shorthand:7s} {spec.validity:4s} "
            f"{spec.lemma}"
        )
    return 0


@command(
    "recommend", "which protocol solves an instance, and best",
    *INSTANCE, *K_T,
)
def _cmd_recommend(args) -> int:
    from repro.protocols.select import NoProtocolAvailable, candidates

    model = Model.from_shorthand(args.model)
    validity = by_code(args.validity)
    options = candidates(model, validity, args.n, args.k, args.t)
    if not options:
        from repro.protocols.select import recommend

        try:
            recommend(model, validity, args.n, args.k, args.t)
        except NoProtocolAvailable as reason:
            print(reason)
            return 1
    print(
        f"protocols for SC(k={args.k}, t={args.t}, {validity.code}) in "
        f"{model} (n={args.n}), cheapest first:"
    )
    for spec in options:
        print(f"  {spec.name:28s} {spec.title} ({spec.lemma})")
    return 0


@command(
    "solve", "pick the best protocol and run it once",
    *INSTANCE, *K_T, INPUTS, SEED,
)
def _cmd_solve(args) -> int:
    from repro.protocols.select import NoProtocolAvailable, solve

    model = Model.from_shorthand(args.model)
    validity = by_code(args.validity)
    inputs = args.inputs or [f"v{i}" for i in range(args.n)]
    try:
        report = solve(model, validity, inputs, args.k, args.t, seed=args.seed)
    except NoProtocolAvailable as reason:
        print(reason)
        return 1
    print(f"decisions: {report.outcome.decisions}")
    print(f"verdicts : {report.summary()}")
    return 0 if report.ok else 1


@command("paper", "paper artifact -> code index")
def _cmd_paper(args) -> int:
    from repro.paper import render_index

    print(render_index())
    return 0


@command("summary", "Section 2.1 summary of results")
def _cmd_summary(args) -> int:
    from repro.analysis.summary import render_summary

    print(render_summary())
    return 0


@command(
    "svg", "write a figure/panel as SVG",
    *INSTANCE,
    arg("--out", required=True, help="output .svg path"),
    arg("--full-figure", action="store_true",
        help="all six panels instead of one"),
)
def _cmd_svg(args) -> int:
    import pathlib

    from repro.analysis.svg import figure_svg, panel_svg

    model = Model.from_shorthand(args.model)
    if args.full_figure:
        content = figure_svg(model, n=args.n)
    else:
        region = region_map(model, by_code(args.validity), args.n)
        content = panel_svg(region)
    from repro.io import atomic_write_text

    path = pathlib.Path(args.out)
    atomic_write_text(path, content)
    print(f"wrote {path} ({len(content)} bytes)")
    return 0


@command(
    "trace", "space-time diagram of one run",
    arg("spec", nargs="?", default=None,
        help="protocol spec name (omit with --lemma)"),
    arg("--lemma", default=None,
        help='trace a construction instead, e.g. "Lemma 3.3"'),
    arg("--n", type=int, default=4),
    arg("--k", type=int, default=2),
    arg("--t", type=int, default=1),
    arg("--rows", type=int, default=120),
)
def _cmd_trace(args) -> int:
    from repro.analysis.spacetime import render_spacetime

    if args.lemma:
        for result in all_constructions():
            if result.lemma_id == args.lemma:
                print(result.summary())
                print()
                print(render_spacetime(
                    result.report.result.trace,
                    result.report.outcome.n,
                    max_rows=args.rows,
                ))
                return 0
        print(f"no construction for {args.lemma!r}")
        return 1
    if not args.spec:
        print("provide a protocol spec name or --lemma")
        return 2
    spec = get_spec(args.spec)
    report = run_spec(
        spec, args.n, args.k, args.t,
        [f"v{i}" for i in range(args.n)],
    )
    print(report.summary())
    print()
    print(render_spacetime(report.result.trace, args.n, max_rows=args.rows))
    if not report.ok:
        from repro.analysis.forensics import first_violation

        located = first_violation(
            report.result.trace, report.outcome, args.k,
            by_code(spec.validity),
        )
        if located is not None:
            print(f"\nforensics: {located}")
    return 0 if report.ok else 1


@command(
    "exhaustive", "verify a protocol over ALL schedules (tiny n)",
    arg("spec"), arg("--n", type=int, default=3), *K_T, INPUTS,
    *search_args(max_states=200_000),
    arg("--jobs", type=count, default=None,
        help="split the root fan-out over N worker processes "
             "(results are identical for every N)"),
    arg("--full-dfs", action="store_true",
        help="disable partial-order reduction (the unreduced "
             "correctness reference)"),
    arg("--symmetry", action="store_true",
        help="canonicalize states modulo renaming of "
             "interchangeable processes (auto-disabled where "
             "unsound, with the reason reported)"),
    VERIFY,
)
def _cmd_exhaustive(args) -> int:
    from repro.harness.exhaustive import SpecFactory, explore_mp, explore_sm

    spec = get_spec(args.spec)
    inputs = args.inputs or [f"v{i}" for i in range(args.n)]
    if spec.is_shared_memory:
        explore, options = explore_sm, {}
    else:  # partial-order reduction is a message-passing option only
        explore, options = explore_mp, {"por": not args.full_dfs}
    # A SpecFactory (not a lambda) so worker processes can unpickle it.
    result = explore(
        SpecFactory(spec.name, args.n, args.k, args.t),
        inputs, args.k, args.t, by_code(spec.validity),
        max_states=args.max_states,
        verify=args.verify,
        jobs=args.jobs,
        visited=args.visited,
        symmetry=args.symmetry,
        stop_on_violation=args.stop_on_violation,
        **options,
    )
    if result.exhausted:
        coverage = "exhaustive"
    elif args.stop_on_violation and result.violations:
        coverage = "stopped at first violation"
    else:
        coverage = "budget-capped"
    print(
        f"explored {result.states} states / {result.runs} complete runs "
        f"({coverage})"
    )
    stats = result.stats
    if args.symmetry:
        if stats.symmetry:
            per = stats.renamings / max(stats.canonicalizations, 1)
            print(
                f"symmetry: group of {stats.group_size} permutations, "
                f"{stats.canonicalizations} canonicalizations, "
                f"{stats.orbit_hits} orbit hits, "
                f"{per:.2f} renamings per canonicalization"
            )
        else:
            print(f"symmetry: disabled ({stats.symmetry_reason})")
    if stats.visited_store != "exact":
        print(f"visited store: {stats.visited_store}")
    probes = result.cache_hits + result.cache_misses
    if probes:
        print(
            f"visited-state store: {result.cache_hits} hits / "
            f"{probes} probes ({result.cache_hit_rate:.1%})"
        )
        print(f"handler runs: {result.handler_runs} for {probes} probes")
    if result.sleep_pruned:
        print(
            f"partial-order reduction: {result.sleep_pruned} branches "
            f"slept, {result.reexpansions} partial re-expansions"
        )
    if result.replays:
        print(
            f"kernel materialized: {result.replays} restores / "
            f"{result.replayed_steps} re-fed results"
        )
    print(f"max distinct decisions: {result.max_distinct_decisions}")
    print(f"violations: {len(result.violations)}")
    for path, verdicts in result.violations[:5]:
        print(f"  !! schedule {path}: {verdicts}")
    return 0 if result.all_ok else 1


@command(
    "certify", "machine-certify the paper's claimed regions at one n",
    arg("--n", type=int, default=4),
    arg("--specs", nargs="*", default=None,
        help="spec-name filter (default: every claim; sim-* "
             "claims are skipped unless named here)"),
    arg("--ks", type=int, nargs="*", default=None,
        help="restrict the k grid (default 1..n)"),
    arg("--ts", type=int, nargs="*", default=None,
        help="restrict the t grid (default 0..n-1)"),
    *search_args(max_states=500_000),
    arg("--no-symmetry", action="store_true",
        help="disable symmetry reduction (on by default here)"),
    arg("--max-sends", type=int, default=1,
        help="partial-broadcast crash depth for MP crash plans"),
    JOBS,
    arg("--out", default=None,
        help="write the repro-certification/1 JSON report here"),
    arg("--witness-dir", default=None,
        help="save counterexample witness files here"),
    arg("--check-baseline", default=None,
        help="compare state counts against a committed baseline "
             "(fail if symmetry reduction regressed)"),
    arg("--write-baseline", default=None,
        help="write the state-count baseline file and exit"),
    arg("--quiet", action="store_true",
        help="suppress per-point progress lines"),
)
def _cmd_certify(args) -> int:
    import json
    import pathlib

    from repro.verify.certify import UnknownSpecs, certify_claims

    progress = None if args.quiet else (lambda line: print(f"  {line}"))
    try:
        report = certify_claims(
            n=args.n,
            specs=args.specs,
            ks=args.ks,
            ts=args.ts,
            visited=args.visited,
            symmetry=not args.no_symmetry,
            max_states=args.max_states,
            jobs=args.jobs,
            max_sends=args.max_sends,
            witness_dir=args.witness_dir,
            progress=progress,
            stop_on_violation=args.stop_on_violation,
        )
    except UnknownSpecs as reason:
        print(f"certify: {reason}", file=sys.stderr)
        return 2
    counts = report.verdict_counts()
    summary = ", ".join(
        f"{count} {verdict}" for verdict, count in counts.items() if count
    )
    print(
        f"certified {len(report.claims)} claims at n={report.n} "
        f"({report.total_states} states): {summary}"
    )
    reasons = sorted({
        p.symmetry_reason for c in report.claims for p in c.points
        if p.symmetry_reason
    })
    for reason in reasons:
        print(f"symmetry disabled: {reason}")
    if report.skipped_specs:
        print(f"skipped sim claims: {', '.join(report.skipped_specs)}")
    if args.out:
        report.save(args.out)
        print(f"wrote {args.out}")
    if args.write_baseline:
        from repro.io import atomic_write_text

        atomic_write_text(
            args.write_baseline,
            json.dumps(_certify_baseline(report), indent=2, sort_keys=True)
            + "\n",
        )
        print(f"wrote baseline {args.write_baseline}")
        return 0
    ok = report.ok
    if args.check_baseline:
        baseline = json.loads(pathlib.Path(args.check_baseline).read_text())
        failures = _check_certify_baseline(report, baseline)
        for line in failures:
            print(f"BASELINE: {line}")
        ok = ok and not failures
        if not failures:
            print(f"baseline check passed ({args.check_baseline})")
    return 0 if ok else 1


#: The run configuration a certify baseline records next to its points.
_BASELINE_CONFIG = ("n", "visited", "symmetry")


def _certify_baseline(report) -> dict:
    """State-count baseline: the certified verdict and cost per point."""
    points = {}
    for claim in report.claims:
        for point in claim.points:
            key = f"{claim.spec_name}:k={point.k}:t={point.t}"
            points[key] = {"verdict": point.verdict, "states": point.states}
    return {
        "format": "repro-certify-baseline/1",
        **{field: getattr(report, field) for field in _BASELINE_CONFIG},
        "points": points,
    }


def _check_certify_baseline(report, baseline: dict) -> List[str]:
    """Fail on a changed configuration, changed verdicts, or state counts
    above the baseline.

    Exploration is deterministic, so equal configurations must reproduce
    the baseline verdicts exactly; a state count *above* the recorded
    one means the symmetry/POR reduction regressed.  Points of a run
    configured differently from the baseline are not compared.
    """
    failures = [
        f"baseline recorded {field}={baseline.get(field)}, "
        f"this run used {getattr(report, field)}"
        for field in _BASELINE_CONFIG
        if baseline.get(field) != getattr(report, field)
    ]
    if failures:
        return failures
    recorded = baseline.get("points", {})
    current = _certify_baseline(report)["points"]
    for key, expected in sorted(recorded.items()):
        actual = current.get(key)
        if actual is None:
            failures.append(f"{key}: missing from this run")
            continue
        if actual["verdict"] != expected["verdict"]:
            failures.append(
                f"{key}: verdict {actual['verdict']} != "
                f"baseline {expected['verdict']}"
            )
        if actual["states"] > expected["states"]:
            failures.append(
                f"{key}: {actual['states']} states > "
                f"baseline {expected['states']} (reduction regressed)"
            )
    return failures


@command(
    "verify-run", "replay a witness file and run the oracle stack over it",
    arg("witness", help="path to a repro-witness/1 JSON file"),
)
def _cmd_verify_run(args) -> int:
    import pathlib

    from repro.verify.witness import load_witness, verify_witness

    path = pathlib.Path(args.witness)
    try:
        witness = load_witness(path)
    except (OSError, ValueError) as reason:
        print(f"cannot load witness: {reason}")
        return 2
    print(f"witness : {witness.describe()}")
    report = verify_witness(witness)
    print(f"replay  : {report.summary()}")
    for violation in report.violations:
        print(f"  !! {violation}")
    if not report.deterministic:
        return 2
    return 1 if report.violations else 0


@command(
    "staticcheck", "AST lint: determinism & protocol-conformance rules",
    arg("paths", nargs="*", default=["src"],
        help="files/directories to lint (default: src)"),
    arg("--format", choices=("text", "json", "sarif"), default="text",
        help="output format (sarif is SARIF 2.1.0)"),
    arg("--out", default=None, metavar="PATH",
        help="write the report to a file instead of stdout"),
    arg("--baseline", default=None, metavar="FILE",
        help="baseline of accepted findings "
             "(default: staticcheck-baseline.json when present)"),
    arg("--no-baseline", action="store_true",
        help="ignore any baseline file"),
    arg("--strict", action="store_true",
        help="warnings also fail the run (default: errors only)"),
    arg("--write-baseline", action="store_true",
        help="accept every current finding into the baseline file "
             "(existing justifications are preserved; rewrites the "
             "file in the v2 fingerprint format)"),
    arg("--no-flow", dest="flow", action="store_false",
        help="per-file rules only; skip the whole-program analysis"),
    arg("--explain", default=None, metavar="RULE",
        help="print what a rule id checks and how to suppress it, "
             "then exit"),
)
def _cmd_staticcheck(args) -> int:
    from repro.staticcheck import (
        DEFAULT_BASELINE_NAME,
        UsageError,
        explain,
        render,
        run_check,
        write_baseline,
    )

    if args.explain is not None:
        try:
            print(explain(args.explain))
        except UsageError as reason:
            print(f"staticcheck: {reason}", file=sys.stderr)
            return 2
        return 0
    if args.no_baseline:
        baseline_path = None
        explicit = False
    elif args.baseline is not None:
        baseline_path = args.baseline
        explicit = True
    else:
        baseline_path = DEFAULT_BASELINE_NAME
        explicit = False
    try:
        report = run_check(
            args.paths,
            baseline_path=baseline_path,
            explicit_baseline=explicit,
            strict=args.strict,
            flow=args.flow,
        )
        if args.write_baseline:
            target = baseline_path or DEFAULT_BASELINE_NAME
            baseline = write_baseline(report, target)
            print(f"wrote {target} ({len(baseline.entries)} entries)")
            return 0
        output = render(report, args.format)
    except UsageError as reason:
        print(f"staticcheck: {reason}", file=sys.stderr)
        return 2
    if args.out:
        from repro.io import atomic_write_text

        atomic_write_text(args.out, output + "\n")
        print(f"wrote {args.out}")
    else:
        print(output)
    return report.exit_code


@command(
    "campaign", "run a persisted validation campaign",
    arg("--name", default="default"),
    arg("--n", type=int, nargs="*", default=[6, 8]),
    arg("--points", type=count, default=2),
    arg("--runs", type=count, default=10),
    SEED,
    arg("--specs", nargs="*", default=None, metavar="SPEC",
        help="restrict to these protocol specs (default: all registered)"),
    arg("--out", default=None,
        help="JSON result path, written when the run ends"),
    JOBS, ENGINE,
    group(
        "job queue (repro.jobs)",
        "every point is a shard in a sqlite job queue, run by supervised "
        "workers with per-shard timeouts and bounded retries with "
        "backoff; the queue is in memory unless --store names a file, "
        "which makes the run resumable",
        arg("--store", default=None, metavar="DB",
            help="sqlite job-store file (default: an in-memory queue "
                 "that ends with the run)"),
        arg("--run-id", default=None,
            help="run identifier inside the store (default: campaign name)"),
        arg("--resume", default=None, metavar="RUN_ID",
            help="resume an interrupted run from the store (requires "
                 "--store; the campaign definition is loaded from the "
                 "run row)"),
        arg("--timeout", type=float, default=300.0,
            help="per-shard timeout in seconds; a worker past it is "
                 "killed and the shard retried"),
        arg("--retries", type=count, default=2,
            help="retries per shard after its first attempt, before it "
                 "is marked failed"),
        arg("--backoff", type=float, default=0.1,
            help="base retry backoff in seconds (exponential, jittered)"),
        arg("--max-shards", type=count, default=None,
            help="stop after settling N shards (interruption drills; "
                 "requires --store, and the run stays resumable)"),
    ),
    group(
        "chaos injection (repro.jobs.chaos)",
        "deterministically sabotage worker attempts to exercise the "
        "supervisor; rates are per shard attempt and must sum to <= 1",
        arg("--chaos-kill", type=float, default=0.0, metavar="RATE",
            help="SIGKILL the worker"),
        arg("--chaos-hang", type=float, default=0.0, metavar="RATE",
            help="hang the worker past its timeout"),
        arg("--chaos-error", type=float, default=0.0, metavar="RATE",
            help="raise a transient exception"),
        arg("--chaos-seed", type=int, default=0,
            help="seed of the deterministic fault schedule"),
    ),
)
def _cmd_campaign(args) -> int:
    import pathlib

    from repro.harness.campaign import Campaign, run_campaign
    from repro.jobs import ChaosPolicy, JobStore, RetryPolicy

    # An in-memory queue ends with the run: nothing could resume it.
    for flag, value in (("--resume", args.resume),
                        ("--max-shards", args.max_shards)):
        if value is not None and not args.store:
            print(f"{flag} requires --store", file=sys.stderr)
            return 2
    # A resumed run loads its definition from the store.
    campaign = None if args.resume else Campaign(
        name=args.name,
        n_values=tuple(args.n),
        points_per_spec=args.points,
        runs_per_point=args.runs,
        seed=args.seed,
        spec_names=tuple(args.specs) if args.specs else None,
        engine=args.engine,
    )
    policy = RetryPolicy(
        max_attempts=args.retries + 1,
        timeout=args.timeout,
        backoff_base=args.backoff,
    )
    chaos = None
    if args.chaos_kill or args.chaos_hang or args.chaos_error:
        chaos = ChaosPolicy(
            seed=args.chaos_seed,
            kill_rate=args.chaos_kill,
            hang_rate=args.chaos_hang,
            error_rate=args.chaos_error,
        )
    run_id = args.resume or args.run_id or campaign.name
    with JobStore(args.store or ":memory:") as store:
        try:
            result, report = run_campaign(
                campaign,
                store,
                run_id=run_id,
                jobs=args.jobs,
                policy=policy,
                chaos=chaos,
                max_shards=args.max_shards,
                result_path=pathlib.Path(args.out) if args.out else None,
            )
        except KeyError as err:
            print(f"cannot resume: {err.args[0]}", file=sys.stderr)
            return 2
    print(result.summary())
    print(f"  execution: {report.describe()}")
    remaining = report.remaining
    if report.stopped_early:
        print(
            f"  INCOMPLETE: {remaining.get('pending', 0)} pending / "
            f"{remaining.get('leased', 0)} leased / "
            f"{remaining.get('failed', 0)} failed shards remain; "
            f"resume with: repro campaign --store {args.store} "
            f"--resume {run_id}"
        )
    for failure in result.execution["failed_shards"][:10]:
        print(f"  !! {failure['shard']}: failed on attempt "
              f"{failure['attempts']}: {failure['error']}")
    for record in result.violating()[:10]:
        print(f"  !! {record.key}: {record.violations} violations")
    if report.stopped_early:
        return 3
    return 0 if result.clean else 1


@command(
    "diff-resumed",
    "assert a resumed campaign result is bit-identical to an "
    "uninterrupted reference result",
    arg("resumed", help="result JSON of the resumed run"),
    arg("reference", help="result JSON of the uninterrupted run"),
)
def _cmd_diff_resumed(args) -> int:
    from repro.verify.differential import diff_resumed_files

    diff = diff_resumed_files(args.resumed, args.reference)
    print(diff.summary())
    for index, got, want in diff.mismatches[:10]:
        print(f"  !! record {index}: resumed={got} reference={want}")
    return 0 if diff.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone (``repro ... | head -1``): stop quietly,
        # and send what is left to devnull so the exit flush succeeds.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
