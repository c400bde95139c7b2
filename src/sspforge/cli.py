"""Batch front end: reduce, check, solve, fuzz, report.

Exit codes: 0 pass, 1 property failure, 2 parse/format error,
3 composition error, 4 capacity error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import sys
import time

from .core import (
    Bounds,
    CapacityError,
    CompositionError,
    DistanceMeasure,
    FormatError,
    PreconditionError,
    SspError,
    indices_of,
)
from .gen import random_lb, random_radjsat, random_source_for_edge
from .problems import ProblemKind, enumerate_solutions, universe_size
from .reductions import (
    ALL_EDGES,
    BLOWUP_EDGES,
    build_blowup,
    build_preserving,
    check_artifact,
    compose,
    edge_kinds,
)
from .rr import (
    eval_comb_rr,
    eval_cost_rr,
    radjsat_to_comb_rr,
    solve_eae_sat,
    solve_radjsat,
)
from . import serialize

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_COMPOSE = 3
EXIT_CAPACITY = 4


def _measure(name: str) -> DistanceMeasure:
    aliases = {
        "add": DistanceMeasure.KAPPA_ADDITION,
        "addition": DistanceMeasure.KAPPA_ADDITION,
        "kappa_addition": DistanceMeasure.KAPPA_ADDITION,
        "del": DistanceMeasure.KAPPA_DELETION,
        "deletion": DistanceMeasure.KAPPA_DELETION,
        "kappa_deletion": DistanceMeasure.KAPPA_DELETION,
        "ham": DistanceMeasure.HAMMING,
        "hamming": DistanceMeasure.HAMMING,
    }
    try:
        return aliases[name.lower()]
    except KeyError:
        raise FormatError(f"unknown distance measure {name!r}")


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _parse_instance(path: str, text: str):
    if path.endswith(".cnf") or text.lstrip().startswith(("c", "p")):
        cnf = serialize.parse_dimacs(text)
        kind = (
            ProblemKind.THREE_SAT
            if all(len(c) == 3 for c in cnf.clauses)
            else ProblemKind.SAT
        )
        return kind, cnf
    return serialize.instance_from_doc(json.loads(text))


def _parse_lb(spec: str | None, cnf) -> int:
    if not spec:
        return 0
    mask = 0
    n = cnf.n_vars
    for tok in spec.split(","):
        tok = tok.strip()
        digits = tok[1:] if tok.startswith("x") else tok
        try:
            i = int(digits) - 1
        except ValueError:
            raise FormatError(f"--lb: {tok!r} is not a variable like x1") from None
        if not 0 <= i < n:
            raise FormatError(f"blow-up variable x{i+1} out of range")
        mask |= (1 << i) | (1 << (n + i))
    return mask


def _count_flag(args, name: str) -> int | None:
    """The value of the integer option ``name``, refused if negative."""
    value = getattr(args, name, None)
    if value is not None and value < 0:
        raise FormatError(f"--{name.replace('_', '-')} {value} is negative")
    return value


def _bounds(args) -> Bounds:
    b = Bounds.from_env()
    for name in ("max_universe", "max_solutions"):
        value = _count_flag(args, name)
        if value is not None:
            b = dataclasses.replace(b, **{name: value})
    return b


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cmd_reduce(args) -> int:
    kind, source = _parse_instance(args.input, _read(args.input))
    measure = _measure(args.measure)
    edges = args.chain.split(",") if args.chain else [args.edge]
    if not edges or edges[0] is None:
        raise FormatError("need --edge or --chain")
    artifact = None
    cur_kind, cur = kind, source
    cnf_kinds = {ProblemKind.SAT, ProblemKind.THREE_SAT}
    for edge in edges:
        if edge not in ALL_EDGES:
            raise CompositionError(f"unknown edge {edge!r}")
        want = edge_kinds(edge)[0]
        # a CNF flows into either SAT edge; the builder enforces clause width
        if cur_kind is not want and not {cur_kind, want} <= cnf_kinds:
            raise CompositionError(
                f"edge {edge} expects a {want.value} source, got {cur_kind.value}"
            )
        if edge in BLOWUP_EDGES:
            lb = _parse_lb(args.lb, cur)
            step = build_blowup(
                edge, cur, lb, measure, beta_override=_count_flag(args, "beta")
            )
        else:
            params = {"k": args.kddp_k} if edge == "2ddp-kddp" else None
            step = build_preserving(edge, cur, params)
        artifact = step if artifact is None else compose(step, artifact)
        cur_kind, cur = artifact.target_kind, artifact.target
    doc = serialize.artifact_to_doc(artifact)
    out = serialize.dumps(doc)
    if args.artifact:
        with open(args.artifact, "w") as fh:
            fh.write(out)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(serialize.dumps(serialize.instance_to_doc(cur_kind, cur)))
    if artifact.beta is not None:
        print("blow-up factors:")
        for m, v in artifact.beta:
            print(f"  {m.value}: {v}")
    print(
        f"reduced {kind.value} -> {cur_kind.value} "
        f"(universe {universe_size(cur)}, edge {artifact.edge})"
    )
    return EXIT_OK


def cmd_check(args) -> int:
    text = _read(args.artifact)
    artifact = serialize.artifact_from_doc(json.loads(text))
    bounds = _bounds(args)
    measure = _measure(args.measure) if args.measure else None
    t0 = time.time()
    results = check_artifact(artifact, args.what, measure, bounds)
    report = {
        "command": "check",
        "inputs_digest": _digest(text),
        "verdicts": {
            name: {
                "passed": v.passed,
                "reason": v.reason,
                "counterexample": [indices_of(c) for c in v.counterexample],
                "source_solutions": v.source_solutions,
                "target_solutions": v.target_solutions,
            }
            for name, v in results
        },
        "elapsed_s": round(time.time() - t0, 3),
    }
    _emit_report(args, report)
    for name, v in results:
        status = "PASS" if v.passed else f"FAIL ({v.reason})"
        print(f"{name}: {status}")
    return EXIT_OK if all(v.passed for _, v in results) else EXIT_FAIL


def cmd_solve(args) -> int:
    text = _read(args.input)
    bounds = _bounds(args)
    if args.problem == "nominal":
        kind, inst = _parse_instance(args.input, text)
        sols = enumerate_solutions(kind, inst, bounds)
        answer = bool(sols)
        witness = indices_of(sols[0]) if sols else None
        print(f"answer: {'yes' if answer else 'no'}")
        if witness is not None:
            print(f"witness: {witness}")
        return EXIT_OK
    doc = json.loads(text)
    if args.problem == "comb-rr":
        inst = serialize.comb_rr_from_doc(doc)
        ans, wit = eval_comb_rr(inst, bounds)
        print(f"answer: {'yes' if ans else 'no'}")
        if wit:
            print(f"first-stage: {indices_of(wit.s1)}")
            for b, s2 in sorted(wit.recoveries.items()):
                print(f"  blocker {indices_of(b)} -> {indices_of(s2)}")
    elif args.problem == "cost-rr":
        inst = serialize.cost_rr_from_doc(doc)
        value, ok, wit = eval_cost_rr(inst, bounds)
        print(f"value: {value}")
        print(f"answer: {'yes' if ok else 'no'} (threshold {inst.t_rr})")
        if wit:
            print(f"first-stage: {indices_of(wit.s1)}")
    elif args.problem == "radjsat":
        inst = serialize.radjsat_from_doc(doc)
        ans, wit = solve_radjsat(inst, bounds)
        print(f"answer: {'yes' if ans else 'no'}")
        if wit is not None:
            print(f"x-assignment literals: {indices_of(wit)}")
    elif args.problem == "eae-sat":
        ans = solve_eae_sat(*serialize.eae_sat_from_doc(doc), bounds)
        print(f"answer: {'yes' if ans else 'no'}")
    else:
        raise FormatError(f"unknown problem {args.problem}")
    return EXIT_OK


def _fuzz_pipeline_case(edge, measure, rng, bounds):
    """End-to-end equivalence on a tiny game instance through this edge."""
    inst = random_radjsat(rng, max_part=1, max_clauses=2, max_gamma=1)
    want, _ = solve_radjsat(inst, bounds)
    comb = radjsat_to_comb_rr(inst, edge, measure)
    got, _ = eval_comb_rr(comb, bounds)
    return want == got


def cmd_fuzz(args) -> int:
    edges = ALL_EDGES if args.edges == "all" else tuple(args.edges.split(","))
    for e in edges:
        if e not in ALL_EDGES:
            raise FormatError(f"unknown edge {e!r}")
    bounds = _bounds(args)
    count = _count_flag(args, "count")
    t0 = time.time()
    failures = []
    cases = 0
    for edge in edges:
        for i in range(count):
            rng = random.Random(repr((args.seed, edge, i)))
            source = random_source_for_edge(edge, rng)
            measure = None
            if edge in BLOWUP_EDGES:
                measure = rng.choice(list(DistanceMeasure))
                lb = random_lb(rng, source)
                artifact = build_blowup(
                    edge,
                    source,
                    lb,
                    measure,
                    beta_override=_count_flag(args, "inject_beta"),
                )
            else:
                params = {"k": rng.randint(2, 4)} if edge == "2ddp-kddp" else None
                artifact = build_preserving(edge, source, params)
            results = check_artifact(artifact, "all", None, bounds)
            cases += 1
            for name, verdict in results:
                if not verdict.passed:
                    failures.append((edge, i, name, verdict.reason, artifact))
                    break
            if (
                not failures
                and edge in BLOWUP_EDGES
                and i % 5 == 0
                and args.inject_beta is None
            ):
                if not _fuzz_pipeline_case(edge, measure, rng, bounds):
                    failures.append(
                        (edge, i, "pipeline",
                         "game and pipeline answers differ", artifact)
                    )
            if failures:
                break
        if failures:
            break
    # the report stays byte-reproducible under a fixed seed, so timing
    # goes to the console only
    report = {
        "command": "fuzz",
        "seed": args.seed,
        "count": count,
        "edges": list(edges),
        "cases_run": cases,
        "failures": [
            {"edge": e, "case": i, "check": name, "reason": reason}
            for e, i, name, reason, _ in failures
        ],
    }
    _emit_report(args, report)
    elapsed = round(time.time() - t0, 3)
    if failures:
        edge, i, name, reason, artifact = failures[0]
        replay = args.replay or "fuzz_counterexample.json"
        with open(replay, "w") as fh:
            fh.write(serialize.dumps(serialize.artifact_to_doc(artifact)))
        print(f"FAIL {edge} case {i} [{name}]: {reason}; replay in {replay}")
        return EXIT_FAIL
    print(f"fuzz: {cases} cases passed in {elapsed}s")
    return EXIT_OK


def cmd_report(args) -> int:
    doc = json.loads(_read(args.input))
    if not isinstance(doc, dict):
        raise FormatError("a report must be a JSON object")
    print(f"command: {doc.get('command')}")
    for key, value in sorted(doc.items()):
        if key == "command":
            continue
        print(f"  {key}: {json.dumps(value, sort_keys=True)}")
    return EXIT_OK


def _emit_report(args, report: dict):
    path = getattr(args, "report", None)
    if path:
        with open(path, "w") as fh:
            fh.write(serialize.dumps(report))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sspforge",
        description="reduction compiler and recoverable-robustness checker",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="build a reduction artifact")
    p.add_argument("input")
    p.add_argument("--edge", choices=ALL_EDGES)
    p.add_argument("--chain", help="comma-separated edge chain")
    p.add_argument("--lb", help="blow-up variables, e.g. x1,x3")
    p.add_argument("--measure", default="hamming")
    p.add_argument("--beta", type=int, help="override the blow-up factor")
    p.add_argument("--kddp-k", type=int, default=3)
    p.add_argument("--output", help="write the target instance JSON here")
    p.add_argument("--artifact", help="write the artifact JSON here")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("check", help="check an artifact")
    p.add_argument("artifact")
    p.add_argument("--what", choices=("all", "ssp", "blowup", "preserving"),
                   default="all")
    p.add_argument("--measure")
    p.add_argument("--max-universe", type=int)
    p.add_argument("--max-solutions", type=int)
    p.add_argument("--report")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("solve", help="solve an instance by brute force")
    p.add_argument("input")
    p.add_argument(
        "--problem",
        choices=("nominal", "comb-rr", "cost-rr", "radjsat", "eae-sat"),
        default="nominal",
    )
    p.add_argument("--max-universe", type=int)
    p.add_argument("--max-solutions", type=int)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("fuzz", help="randomized build+check harness")
    p.add_argument("--edges", default="all")
    p.add_argument("--count", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-beta", type=int, help="test hook: force this factor")
    p.add_argument("--replay", help="counterexample output path")
    p.add_argument("--max-universe", type=int)
    p.add_argument("--max-solutions", type=int)
    p.add_argument("--report")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser("report", help="render a JSON run report")
    p.add_argument("input")
    p.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (
        FormatError,
        PreconditionError,
        json.JSONDecodeError,
        OSError,
        UnicodeDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CompositionError as exc:
        print(f"composition error: {exc}", file=sys.stderr)
        return EXIT_COMPOSE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except SspError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
