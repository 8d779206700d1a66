"""Command-line front end.

Exit codes: 0 success/feasible, 1 infeasible, 2 inconclusive or budget
exceeded, 64 usage error, 65 parse error. Configuration is flags only.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import bounds as bounds_mod
from .coloring import trivial_vs_ratio_bound
from .core import (
    DpsInstance,
    OpsInstance,
    UNBOUNDED,
    heat,
    verify_dps,
)
from .exact import FEASIBLE, INFEASIBLE, SearchLimits, dps_feasible, ops_optimal_heat
from .fileio import (
    emit_instance,
    emit_schedule,
    format_rational,
    parse_instance,
    parse_schedule,
)
from .generators import (
    figure1,
    figure1_schedule,
    generate,
)
from .layering import ratio_guarantee
from .matchings import MATCHING_CAP
from .report import format_table, run_one, run_suite, seeded_suite
from .satred import (
    CnfFormula,
    DeferredArtifact,
    ExtractionError,
    SynthesisRefused,
    compile_formula,
    emit_sidecar,
    extract_assignment,
    parse_dimacs,
    parse_sidecar,
    synthesize_schedule,
)

EX_OK = 0
EX_INFEASIBLE = 1
EX_INCONCLUSIVE = 2
EX_USAGE = 64
EX_PARSE = 65


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _parse(path: str, parse, *args):
    """`parse(*args, text)` of the file at `path`. A file that cannot be read
    is a usage error (64); one that cannot be decoded as text, or whose text
    `parse` refuses, is a parse error (65) prefixed by the path."""
    try:
        return parse(*args, Path(path).read_text())
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EX_USAGE) from exc
    except ValueError as exc:
        raise CliError(f"{path}: {exc}", EX_PARSE) from exc


def _load_ops(path: str) -> OpsInstance:
    inst = _parse(path, parse_instance)
    if not isinstance(inst, OpsInstance):
        raise CliError(f"{path}: expected an ops instance", EX_USAGE)
    return inst


def _load_dps(path: str) -> DpsInstance:
    inst = _parse(path, parse_instance)
    if not isinstance(inst, DpsInstance):
        raise CliError(f"{path}: expected a dps instance", EX_USAGE)
    return inst


def _write(path: str, text: str) -> None:
    """Write `text` to the file at `path`, or to stdout when it is `-`; a file
    that cannot be written is a usage error (64)."""
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EX_USAGE) from exc


def _limits(args) -> SearchLimits:
    """The search limits of `feasible` and `solve`; a limit that leaves no
    search to run, or no matching to enumerate, is a usage error."""
    if args.max_states < 1:
        raise CliError(f"--max-states {args.max_states} must be at least 1", EX_USAGE)
    if args.time_limit is not None and not args.time_limit >= 0:  # NaN included
        raise CliError(f"--time-limit {args.time_limit:g} must not be negative", EX_USAGE)
    if args.matching_cap < 1:
        raise CliError(f"--matching-cap {args.matching_cap} must be at least 1", EX_USAGE)
    return SearchLimits(max_states=args.max_states, time_limit=args.time_limit)


# -- subcommands ---------------------------------------------------------------


def cmd_gen(args) -> int:
    kwargs = {}
    if args.family == "tadpole":
        kwargs = {"k": args.tail, "big_f": args.tail_freq}
    elif args.family == "pinwheel-star":
        if not args.freqs:
            raise CliError("pinwheel-star needs --freqs", EX_USAGE)
        kwargs = {"freqs": tuple(int(x) for x in args.freqs.split(","))}
    instance = generate(args.family, **kwargs)
    _write(args.output, emit_instance(instance))
    if args.family == "figure1" and args.with_schedule:
        _write(args.with_schedule, emit_schedule(figure1(), figure1_schedule()))
    return EX_OK


def cmd_verify(args) -> int:
    instance = _parse(args.instance, parse_instance)
    schedule = _parse(args.schedule, parse_schedule, instance)
    if isinstance(instance, DpsInstance):
        violation = verify_dps(instance, schedule)
        if violation is None:
            print("ok")
            return EX_OK
        print(f"violation: {violation}")
        return EX_INFEASIBLE
    h = heat(instance, schedule)
    if h is UNBOUNDED:
        print("heat unbounded (some edge never occurs)")
        return EX_INFEASIBLE
    print(f"heat {format_rational(h)}")
    return EX_OK


def cmd_heat(args) -> int:
    instance = _load_ops(args.instance)
    schedule = _parse(args.schedule, parse_schedule, instance)
    h = heat(instance, schedule)
    print("unbounded" if h is UNBOUNDED else format_rational(h))
    return EX_OK


def cmd_schedule(args) -> int:
    instance = _load_ops(args.instance)
    row = run_one(args.instance, instance, args.algo)
    print(f"heat {format_rational(row.achieved)}")
    if args.algo == "coloring":
        print(f"guarantee {trivial_vs_ratio_bound(instance)}")
    else:
        print(f"layers {row.verdict}")
        print(f"guarantee {ratio_guarantee(instance):.3f}")
    print(f"bound {format_rational(row.bound)} ({row.bound_method})")
    if row.ratio is not None:
        print(f"ratio {format_rational(row.ratio)}")
    if args.emit_schedule:
        _write(args.emit_schedule, emit_schedule(instance, row.schedule))
    return EX_OK


def cmd_feasible(args) -> int:
    limits = _limits(args)
    instance = _load_dps(args.instance)
    result = dps_feasible(instance, limits, matching_cap=args.matching_cap)
    print(f"{result.status} (explored {result.explored} states)")
    if result.status == FEASIBLE and args.emit_schedule:
        _write(args.emit_schedule, emit_schedule(instance, result.schedule))
    return {FEASIBLE: EX_OK, INFEASIBLE: EX_INFEASIBLE}.get(result.status, EX_INCONCLUSIVE)


def cmd_solve(args) -> int:
    limits = _limits(args)
    instance = _load_ops(args.instance)
    result = ops_optimal_heat(instance, limits, matching_cap=args.matching_cap)
    if result.status != FEASIBLE:
        lo, hi = result.bracket
        print(f"inconclusive; bracket ({lo}, {hi})")
        return EX_INCONCLUSIVE
    print(f"optimal heat {format_rational(result.heat)}")
    if result.predecessor is not None:
        print(f"infeasible below at {format_rational(result.predecessor)}")
    if args.emit_schedule:
        _write(args.emit_schedule, emit_schedule(instance, result.schedule))
    return EX_OK


def cmd_bound(args) -> int:
    instance = _load_ops(args.instance)
    report = bounds_mod.METHODS[args.method](instance)
    print(f"{report.method} {format_rational(report.value)}")
    if args.certificate:
        if report.method == "bamboo":
            print(f"certificate person {report.certificate}")
        elif report.method == "polydensity":
            # the one caller of the LP: only its dual weights need it
            dual = bounds_mod.poly_density(instance).dual
            print(f"certificate z {' '.join(format_rational(z) for z in dual.z)}")
    return EX_OK


def cmd_reduce_sat(args) -> int:
    formula = _parse(args.cnf, parse_dimacs)
    if args.k is not None:
        if not 0 <= args.k <= formula.num_clauses:
            raise CliError(f"-k {args.k} is outside 0..{formula.num_clauses}, "
                           f"the clause count of {args.cnf}", EX_USAGE)
        formula = CnfFormula(formula.num_vars, formula.clauses, args.k)
    artifact = compile_formula(formula)
    _write(args.output, emit_instance(artifact.dps))
    _write(args.output + ".prov", emit_sidecar(artifact))
    print(f"compiled: {artifact.dps.n} persons, {artifact.dps.m} edges, "
          f"max frequency {artifact.dps.max_freq}")
    return EX_OK


def cmd_synth(args) -> int:
    formula = _parse(args.artifact + ".prov", parse_sidecar)
    bits = args.assign.strip()
    if len(bits) != formula.num_vars or set(bits) - {"0", "1"}:
        raise CliError("--assign must be a 0/1 string, one bit per variable", EX_USAGE)
    assignment = tuple(c == "1" for c in bits)
    # refusal reads only the formula, so a refused assignment compiles nothing
    deferred = DeferredArtifact(formula)
    try:
        schedule = synthesize_schedule(deferred, assignment)
    except SynthesisRefused as exc:
        print(f"refused: {exc}")
        return EX_INFEASIBLE
    _write(args.output, emit_schedule(deferred.artifact.dps, schedule))
    return EX_OK


def cmd_extract(args) -> int:
    artifact = compile_formula(_parse(args.artifact + ".prov", parse_sidecar))
    schedule = _parse(args.schedule, parse_schedule, artifact.dps)
    try:
        values = extract_assignment(artifact, schedule)
    except ExtractionError as exc:  # a schedule that encodes no assignment
        raise CliError(str(exc), EX_INFEASIBLE) from exc
    print("".join("1" if v else "0" for v in values))
    return EX_OK


def cmd_suite(args) -> int:
    instances: list[tuple[str, OpsInstance]] = []
    if args.fixtures:
        instances.append(("figure1", figure1()))
        instances.append(("fig4", generate("unweighted-fig4")))
    instances += seeded_suite(args.seed, args.count,
                              max_persons=args.max_persons, max_edges=args.max_edges)
    algos = args.algos.split(",")
    reports = run_suite(instances, algos, bound_methods=args.bound.split(","))
    sys.stdout.write(format_table(reports, fmt=args.format, with_time=args.times))
    return EX_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    Parsing leaves the parser unchanged, and building it costs about as much
    as a small `solve`, so in-process callers of `main` pay it once.
    """
    parser = argparse.ArgumentParser(
        prog="polysched",
        description="periodic pairwise-meeting scheduling: solvers, bounds, reductions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a named instance family")
    p.add_argument("family", choices=["figure1", "unweighted-fig4", "pentagon",
                                      "tadpole", "pinwheel-star", "triangle-f2"])
    p.add_argument("--tail", type=int, default=3, help="tadpole tail length")
    p.add_argument("--tail-freq", type=int, default=3, help="tadpole tail frequency")
    p.add_argument("--freqs", help="pinwheel-star frequencies, comma separated")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--with-schedule", help="also write the bundled figure1 schedule")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="check a schedule against an instance")
    p.add_argument("instance")
    p.add_argument("schedule")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("heat", help="heat of a schedule on an ops instance")
    p.add_argument("instance")
    p.add_argument("schedule")
    p.set_defaults(func=cmd_heat)

    p = sub.add_parser("schedule", help="build an approximation schedule")
    p.add_argument("--algo", choices=["coloring", "layering"], required=True)
    p.add_argument("instance")
    p.add_argument("--emit-schedule")
    p.set_defaults(func=cmd_schedule)

    for name, fn in (("feasible", cmd_feasible), ("solve", cmd_solve)):
        p = sub.add_parser(name, help=f"exact {name} via the configuration graph")
        p.add_argument("instance")
        p.add_argument("--emit-schedule")
        p.add_argument("--max-states", type=int, default=SearchLimits.max_states)
        p.add_argument("--time-limit", type=float, default=None)
        p.add_argument("--matching-cap", type=int, default=MATCHING_CAP)
        p.set_defaults(func=fn)

    p = sub.add_parser("bound", help="instance-specific lower bounds")
    p.add_argument("--method", choices=list(bounds_mod.METHODS), default="best")
    p.add_argument("--certificate", action="store_true")
    p.add_argument("instance")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("reduce-sat", help="compile a DIMACS CNF into a dps instance")
    p.add_argument("--cnf", required=True)
    p.add_argument("-k", type=int, default=None, help="required satisfied clauses")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_reduce_sat)

    p = sub.add_parser("synth", help="schedule a compiled instance from an assignment")
    p.add_argument("--artifact", required=True, help="instance file (with .prov sidecar)")
    p.add_argument("--assign", required=True, help="0/1 string, one bit per variable")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="read the variable assignment out of a schedule")
    p.add_argument("--artifact", required=True)
    p.add_argument("--schedule", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("suite", help="run algorithms x bounds over a seeded suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--max-persons", type=int, default=7)
    p.add_argument("--max-edges", type=int, default=10)
    p.add_argument("--algos", default="coloring,layering")
    p.add_argument("--bound", default="best",
                   help="bound method(s), comma separated: one table row each")
    p.add_argument("--fixtures", action="store_true", help="include figure1 and fig4")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.add_argument("--times", action="store_true", help="append wall-time column")
    p.set_defaults(func=cmd_suite)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EX_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE


if __name__ == "__main__":
    sys.exit(main())
