"""Command-line entry point.

Subcommands: gen, recover, simple-check, square-complete, props, spin-demo,
naturality.  Every command is a one-shot computation whose randomness is
fully determined by --seed, so reruns produce byte-identical files and
stdout.  All file formats are JSON with scalars serialized as "p/q".

Exit codes: 0 success; 1 verification mismatch or property violation;
2 malformed arguments or input files, or a shape to generate with
m * n > 100; 3 no certified sheet pair among the candidates (the
instance's cone is not a Segre cone).
"""

from __future__ import annotations

import argparse
import json
import sys
from random import Random

from untensor.errors import DimensionMismatch, RetryExhausted, ToolkitError
from untensor.foliation import tangent_space
from untensor.linalg import format_scalar, parse_vector
from untensor.reconstruct import recover_factors, verify_round_trip
from untensor.squares import complete_square_details
from untensor.suites import DEFAULT_TRIALS, SUITE_NAMES, run_suites
from untensor.tensor_space import (
    dump_json,
    generate_instance,
    instance_payload,
    load_instance,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_MALFORMED = 2
EXIT_RETRY = 3

# Largest m * n that gen and spin-demo generate: a scramble is (m n)^2 entries.
MAX_GENERATED_DIM = 100


# What parsing outside input can raise: bad JSON or scalar text, a "p/0" or
# infinite scalar, a value of the wrong type, or a missing key.
_PARSE_ERRORS = (ValueError, ArithmeticError, TypeError, KeyError)


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _emit(text: str, out_path: str | None, quiet: bool) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if not quiet:
            sys.stdout.write(text)
    else:
        sys.stdout.write(text)


def _load_instance(path: str):
    try:
        return load_instance(path)
    except (OSError, DimensionMismatch, *_PARSE_ERRORS) as exc:
        raise _CliError(f"cannot read instance file {path!r}: {exc}", EXIT_MALFORMED) from exc


def _parse_vector(args, dim: int):
    if args.vector is not None:
        raw = args.vector
    elif args.vector_file is not None:
        try:
            with open(args.vector_file, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise _CliError(str(exc), EXIT_MALFORMED) from exc
    else:
        raise _CliError("provide --vector or --vector-file", EXIT_MALFORMED)
    try:
        v = parse_vector(json.loads(raw))
    except _PARSE_ERRORS as exc:
        raise _CliError(f"cannot parse vector: {exc}", EXIT_MALFORMED) from exc
    if len(v) != dim:
        raise _CliError(f"vector length {len(v)} does not match instance dimension {dim}", EXIT_MALFORMED)
    return v


def _check_shape(m: int, n: int) -> None:
    if m < 1 or n < 1:
        raise _CliError("factor dimensions must be at least 1", EXIT_MALFORMED)
    if m * n > MAX_GENERATED_DIM:
        raise _CliError(f"shape {m}x{n} exceeds m * n <= {MAX_GENERATED_DIM}", EXIT_MALFORMED)


def _cmd_gen(args) -> int:
    _check_shape(args.m, args.n)
    if args.sampler_range < 1:
        raise _CliError("--sampler-range must be at least 1", EXIT_MALFORMED)
    inst = generate_instance((args.m, args.n), args.seed, pointed=args.pointed, sampler_range=args.sampler_range)
    _emit(dump_json(instance_payload(inst)), args.out, args.quiet)
    return EXIT_OK


def _cmd_recover(args) -> int:
    inst = _load_instance(args.instance)
    inst.stats.reset()
    rng = Random(args.seed)
    try:
        recon = recover_factors(inst, rng)
    except RetryExhausted as exc:
        raise _CliError(str(exc), EXIT_RETRY) from exc
    report = verify_round_trip(inst, recon)
    _emit(dump_json(report.to_payload()), args.out, args.quiet)
    return EXIT_OK if report.success else EXIT_VIOLATION


def _cmd_simple_check(args) -> int:
    inst = _load_instance(args.instance)
    v = _parse_vector(args, inst.dim)
    payload = {"simple": inst.is_simple(v)}
    _emit(dump_json(payload), args.out, args.quiet)
    return EXIT_OK


def _cmd_square_complete(args) -> int:
    inst = _load_instance(args.instance)
    try:
        with open(args.corners, "r", encoding="utf-8") as fh:
            corners = json.load(fh)
        a = parse_vector(corners["a"])
        b = parse_vector(corners["b"])
        c = parse_vector(corners["c"])
    except (OSError, *_PARSE_ERRORS) as exc:
        raise _CliError(f"cannot read corners file {args.corners!r}: {exc}", EXIT_MALFORMED) from exc
    for name, corner in zip("abc", (a, b, c)):
        if len(corner) != inst.dim:
            raise _CliError(
                f"corner {name} length {len(corner)} does not match instance dimension {inst.dim}", EXIT_MALFORMED
            )
    completion = complete_square_details(inst, a, b, c)
    payload = {
        "d": [format_scalar(x) for x in completion.d],
        "t": format_scalar(completion.scale),
        "case": completion.case,
    }
    _emit(dump_json(payload), args.out, args.quiet)
    return EXIT_OK


def _cmd_spin_demo(args) -> int:
    try:
        dims = []
        for chunk in args.dims.split(","):
            m_text, n_text = chunk.lower().split("x")
            dims.append((int(m_text), int(n_text)))
    except ValueError as exc:
        raise _CliError(f"cannot parse --dims {args.dims!r}: {exc}", EXIT_MALFORMED) from exc
    for m, n in dims:
        _check_shape(m, n)
    lines = []
    ok = True
    for i, (m, n) in enumerate(dims):
        inst = generate_instance((m, n), args.seed + i)
        rng = Random(args.seed + 1000 + i)
        dim = tangent_space(inst, inst.sample_simple(rng)).dim
        expected = m + n - 1
        ok = ok and dim == expected
        note = "  [trivial shape: every vector is on the cone]" if m == 1 or n == 1 else ""
        lines.append(f"{m}x{n}: cone dimension = {dim}  (m+n-1 = {expected}){note}")
    text = "\n".join(lines) + "\n"
    _emit(text, args.out, args.quiet)
    return EXIT_OK if ok else EXIT_VIOLATION


def _check_trials(trials) -> None:
    if trials is not None and trials < 1:
        raise _CliError("--trials must be at least 1", EXIT_MALFORMED)


def _cmd_props(args) -> int:
    _check_trials(args.trials)
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    outcomes = run_suites(names, seed=args.seed, trials=args.trials, fault=args.inject_fault)
    lines = []
    failed = False
    for o in outcomes:
        status = "PASS" if o.passed else "FAIL"
        lines.append(f"{status} {o.name}: {o.trials - o.failures}/{o.trials}")
        if not o.passed:
            failed = True
            if o.counterexample:
                lines.append(f"  counterexample: {o.counterexample}")
    text = "\n".join(lines) + "\n"
    _emit(text, args.out, args.quiet)
    return EXIT_VIOLATION if failed else EXIT_OK


def _cmd_naturality(args) -> int:
    _check_trials(args.trials)
    outcomes = run_suites(["naturality"], seed=args.seed, trials=args.trials)
    by_name = {o.name: o for o in outcomes}
    summary = {
        "trials": by_name["pair-side-naturality"].trials,
        "psi_pass": by_name["pair-side-naturality"].passed,
        "phi_pass": by_name["product-side-naturality"].passed,
        "functor_law_pass": by_name["functor-laws"].passed
        and by_name["morphism-certification"].passed
        and by_name["gl1-collapse"].passed
        and by_name["unpointed-scale"].passed,
    }
    _emit(dump_json(summary), args.out, args.quiet)
    all_pass = summary["psi_pass"] and summary["phi_pass"] and summary["functor_law_pass"]
    return EXIT_OK if all_pass else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="untensor",
        description="Recover the factors of a tensor-product space from its rank-one cone.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_default=0):
        p.add_argument("--seed", type=int, default=seed_default, help="seed for all randomness")
        p.add_argument("--out", type=str, default=None, help="write output to this file")
        p.add_argument("--quiet", action="store_true", help="suppress stdout when writing a file")

    p = sub.add_parser("gen", help="generate a scrambled instance file")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pointed", action="store_true", help="attach a distinguished base point")
    p.add_argument("--sampler-range", type=int, default=10)
    common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("recover", help="recover the factor pair and verify the round trip")
    p.add_argument("instance", help="instance JSON file")
    common(p)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("simple-check", help="test a vector for cone membership")
    p.add_argument("instance")
    p.add_argument("--vector", type=str, default=None, help="JSON array of scalars")
    p.add_argument("--vector-file", type=str, default=None)
    common(p)
    p.set_defaults(func=_cmd_simple_check)

    p = sub.add_parser("square-complete", help="complete three square corners to the fourth")
    p.add_argument("instance")
    p.add_argument("corners", help='JSON file {"a": [...], "b": [...], "c": [...]}')
    common(p)
    p.set_defaults(func=_cmd_square_complete)

    p = sub.add_parser("spin-demo", help="cone dimensions distinguish factorizations of one ambient dimension")
    p.add_argument("--dims", type=str, required=True, help="comma-separated list like 4x3,2x6")
    common(p)
    p.set_defaults(func=_cmd_spin_demo)

    p = sub.add_parser("props", help="run seeded property suites")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p.add_argument("--trials", type=int, default=None, help=f"per-shape trials (defaults: {DEFAULT_TRIALS})")
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    common(p)
    p.set_defaults(func=_cmd_props)

    p = sub.add_parser("naturality", help="run the naturality suite and emit a JSON summary")
    p.add_argument("--trials", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_naturality)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except RetryExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RETRY
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
