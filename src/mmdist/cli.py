"""Command-line entry point.

Results go to stdout (or --out) as canonical JSON; --raw prints just the
value. Human notes and timing go to stderr so stdout stays machine-readable.
Exit codes: 0 success, 1 domain error (invalid input, size cap), 2 usage
error, 3 experiment report with failing checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .coding import code_excursion, four_point_check
from .errors import SizeError, ValidationError
from .exact import decimal_str, format_scalar, parse_scalar
from .excursion_metrics import (
    DEFAULT_GAMMA_BUDGET,
    DEFAULT_GAMMA_TOL,
    d_excursion_detail,
)
from .excursions import (
    EXCURSION_FORMAT,
    dh,
    excursion_from_obj,
    excursion_to_obj,
    load_excursion,
    normalize,
    validate_excursion,
)
from .gluing import build_glued_space, check_triangle, glued_upper_bound, prohorov_of_glue
from .gromov import (
    DEFAULT_CELL_CAP,
    box_lambda_detail,
    gromov_prohorov_detail,
)
from .harness import (
    run_continuity_check,
    run_counterexample,
    run_lipschitz_check,
    run_theorem_check,
)
from .prohorov import CommonSpaceMeasures, prohorov
from .spaces import (
    MMSPACE_FORMAT,
    canonicalize,
    dumps_json,
    load_space,
    loads_document,
    sample_mm_space,
    space_from_obj,
    space_to_obj,
    validate,
)

ROUNDING_NOTE = "round-half-even-12"


def _value_payload(q, float_mode: bool) -> dict:
    if float_mode:
        return {"value": float(q), "rounding": "ieee-754-double"}
    return {
        "value": format_scalar(q),
        "decimal": decimal_str(q),
        "rounding": ROUNDING_NOTE,
    }


def _load_document(path):
    with open(path, "r", encoding="utf-8") as f:
        return loads_document(f.read())


def _scalar_arg(text, flag):
    try:
        return parse_scalar(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"{flag}: invalid literal {json.dumps(text)}") from None


def _pairs_arg(text):
    try:
        pairs = json.loads(text)
    except json.JSONDecodeError:
        pairs = None
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(type(x) is int for x in p) for p in pairs
    ):
        raise ValidationError(f"--pairs: expected a JSON list of [i, j] index pairs, got {text!r}")
    return tuple(map(tuple, pairs))


def _int_list_arg(text, flag):
    try:
        return tuple(int(x) for x in text.split(",") if x)
    except ValueError:
        raise ValidationError(f"{flag}: expected comma-separated integers, got {text!r}") from None


def _threads_from_env():
    env = os.environ.get("MMSPACE_THREADS")
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        raise ValidationError(f"MMSPACE_THREADS: expected an integer, got {env!r}") from None


# ---------------------------------------------------------------------------
# handlers: each returns (payload, raw string or None, exit code)


def _cmd_validate(args):
    obj = _load_document(args.infile)
    fmt = obj.get("format") if isinstance(obj, dict) else None
    if fmt not in (MMSPACE_FORMAT, EXCURSION_FORMAT):
        raise ValidationError(f"validate: unsupported document format {fmt!r}")
    try:
        if fmt == MMSPACE_FORMAT:
            violations = validate(space_from_obj(obj, check=False))
        else:
            violations = validate_excursion(excursion_from_obj(obj, check=False))
    except ValidationError as exc:  # a document that does not parse: list why
        violations = exc.violations or [str(exc)]
    payload = {
        "format": fmt,
        "valid": not violations,
        "violations": list(violations),
    }
    return payload, str(payload["valid"]).lower(), 0


def _cmd_canonicalize(args):
    obj = _load_document(args.infile)
    fmt = obj.get("format") if isinstance(obj, dict) else None
    if fmt == MMSPACE_FORMAT:
        payload = space_to_obj(canonicalize(space_from_obj(obj)))
    elif fmt == EXCURSION_FORMAT:
        payload = excursion_to_obj(normalize(excursion_from_obj(obj)))
    else:
        raise ValidationError(f"canonicalize: unsupported document format {fmt!r}")
    return payload, None, 0


def _cmd_sample(args):
    space = sample_mm_space(args.seed or 0, n_max=args.n_max)
    return space_to_obj(space), None, 0


def _cmd_dist_prohorov(args):
    a = load_space(args.a)
    b = load_space(args.b)
    if a.labels != b.labels or a.dist != b.dist:
        raise ValidationError(
            "dist prohorov: --a and --b must carry the same labels and distance "
            "matrix (two measures on one space)"
        )
    # load_space validated both files, so the common space is valid too
    value = prohorov(CommonSpaceMeasures(a.dist, a.weights, b.weights))
    payload = _value_payload(value, args.float_mode)
    return payload, format_scalar(value), 0


def _cmd_dist_gp(args):
    a = load_space(args.a)
    b = load_space(args.b)
    res = gromov_prohorov_detail(a, b, cap=args.cap)
    payload = _value_payload(res.value, args.float_mode)
    payload["box_half"] = _value_payload(res.box_value, args.float_mode)["value"]
    payload["exact"] = res.exact
    if args.witness:
        payload["pairs"] = [list(p) for p in res.pairs]
    return payload, format_scalar(res.value), 0


def _cmd_dist_box(args):
    a = load_space(args.a)
    b = load_space(args.b)
    res = box_lambda_detail(a, b, _scalar_arg(args.lam, "--lambda"), cap=args.cap)
    payload = _value_payload(res.value, args.float_mode)
    payload["lambda"] = format_scalar(res.lam)
    payload["exact"] = res.exact
    if args.witness:
        payload["pairs"] = [list(p) for p in res.pairs]
    return payload, format_scalar(res.value), 0


def _cmd_dist_excursion(args):
    h = load_excursion(args.a)
    g = load_excursion(args.b)
    tol = _scalar_arg(args.gamma_tol, "--gamma-tol") if args.gamma_tol else DEFAULT_GAMMA_TOL
    if tol < 0:
        raise ValidationError(f"--gamma-tol: expected a nonnegative number, got {args.gamma_tol!r}")
    if args.budget < 0:
        raise ValidationError(f"--budget: expected a nonnegative integer, got {args.budget}")
    res = d_excursion_detail(h, g, tol=tol, budget=args.budget)
    payload = _value_payload(res.value, args.float_mode)
    payload.update(
        {
            "certified": res.certified,
            "gamma": {
                "exact": res.gamma.exact,
                "hi": format_scalar(res.gamma.hi),
                "lo": format_scalar(res.gamma.lo),
                "value": format_scalar(res.gamma.value),
            },
            "hi": format_scalar(res.hi),
            "lambda": format_scalar(res.lam),
            "lo": format_scalar(res.lo),
        }
    )
    return payload, format_scalar(res.value), 0


def _cmd_dist_dh(args):
    h = load_excursion(args.infile)
    value = dh(h, _scalar_arg(args.s, "--s"), _scalar_arg(args.t, "--t"))
    return _value_payload(value, args.float_mode), format_scalar(value), 0


def _cmd_code_excursion(args):
    h = load_excursion(args.infile)
    resolution = ()
    if args.resolution:
        resolution = tuple(
            _scalar_arg(part, "--resolution") for part in args.resolution.split(",") if part
        )
    coded = code_excursion(h, resolution=resolution)
    payload = space_to_obj(coded.space)
    payload["projection"] = list(coded.projection)
    payload["representatives"] = [format_scalar(t) for t in coded.representatives]
    payload["resolution_bound"] = format_scalar(coded.resolution_bound)
    payload["segments"] = [
        [format_scalar(lo), format_scalar(hi)] for lo, hi in coded.segments
    ]
    payload["four_point_violations"] = len(four_point_check(coded.space))
    return payload, None, 0


def _cmd_glue(args):
    a = load_space(args.a)
    b = load_space(args.b)
    if args.pairs is None and args.eps is None:
        res = glued_upper_bound(a, b, search_budget=args.budget, seed=args.seed or 0)
        payload = _value_payload(res.value, args.float_mode)
        payload["eps"] = format_scalar(res.eps)
        payload["evaluations"] = res.evaluations
        payload["source"] = res.source
        if res.pairs is not None:
            payload["pairs"] = [list(p) for p in res.pairs]
        return payload, format_scalar(res.value), 0
    if args.pairs is None or args.eps is None:
        raise ValidationError("glue: --pairs and --eps must be given together")
    glued = build_glued_space(a, b, _pairs_arg(args.pairs), _scalar_arg(args.eps, "--eps"))
    value = prohorov_of_glue(glued)
    payload = _value_payload(value, args.float_mode)
    payload["eps"] = format_scalar(glued.eps)
    if args.check:
        payload["triangle_violations"] = [list(t) for t in check_triangle(glued)]
    return payload, format_scalar(value), 0


_EXPERIMENT_DEFAULT_SEED = {
    "theorem-check": 42,
    "lipschitz": 7,
    "counterexample": 0,
    "continuity": 0,
}


def _cmd_experiment(args):
    seed = args.seed if args.seed is not None else _EXPERIMENT_DEFAULT_SEED[args.name]
    threads = args.threads if args.threads is not None else _threads_from_env()
    if args.name == "theorem-check":
        report = run_theorem_check(
            seed=seed,
            count=args.count if args.count is not None else 200,
            n_max=args.n_max,
            threads=threads,
        )
    elif args.name == "lipschitz":
        report = run_lipschitz_check(
            seed=seed,
            count=args.count if args.count is not None else 100,
            threads=threads,
        )
    elif args.name == "counterexample":
        report = run_counterexample(n_list=_int_list_arg(args.n_list, "--n-list"))
    else:
        h = load_excursion(args.h) if args.h else None
        report = run_continuity_check(seed=seed, schedule=args.schedule, h=h)
    if args.csv:
        report.save_csv(args.csv)
        print(f"wrote {args.csv}", file=sys.stderr)
    totals = report.totals
    print(
        f"{report.experiment}: {totals['instances']} instances, "
        f"{totals['checks']} checks, {totals['failures']} failures",
        file=sys.stderr,
    )
    code = 0 if report.passed else 3
    return report.to_obj(), None, code


# ---------------------------------------------------------------------------
# parser


def _common_flags(p):
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--rational",
        action="store_true",
        help="emit exact rationals (default)",
    )
    mode.add_argument(
        "--float",
        dest="float_mode",
        action="store_true",
        help="emit IEEE doubles instead of rationals",
    )
    p.add_argument("--threads", type=int, default=None, help="worker threads (or MMSPACE_THREADS)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="write the JSON payload here instead of stdout")
    p.add_argument("--raw", action="store_true", help="print only the bare value")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmdist",
        description="Exact distances between metric measure spaces and excursion-coded trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="report violations of a space or excursion file")
    p.add_argument("--in", dest="infile", required=True)
    _common_flags(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("canonicalize", help="canonical form of a space (or normalized excursion)")
    p.add_argument("--in", dest="infile", required=True)
    _common_flags(p)
    p.set_defaults(handler=_cmd_canonicalize)

    p = sub.add_parser("sample", help="deterministic random space on a rational grid")
    p.add_argument("--n-max", type=int, default=5)
    _common_flags(p)
    p.set_defaults(handler=_cmd_sample)

    dist = sub.add_parser("dist", help="distances")
    dsub = dist.add_subparsers(dest="distance", required=True)

    p = dsub.add_parser("prohorov", help="two measures on one space")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    _common_flags(p)
    p.set_defaults(handler=_cmd_dist_prohorov)

    p = dsub.add_parser("gp", help="Gromov-Prohorov distance of two spaces")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CELL_CAP)
    p.add_argument("--witness", action="store_true")
    _common_flags(p)
    p.set_defaults(handler=_cmd_dist_gp)

    p = dsub.add_parser("box", help="box metric at a given lambda")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CELL_CAP)
    p.add_argument("--witness", action="store_true")
    _common_flags(p)
    p.set_defaults(handler=_cmd_dist_box)

    p = dsub.add_parser("excursion", help="epigraph plus level-measure distance")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--gamma-tol", default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_GAMMA_BUDGET)
    _common_flags(p)
    p.set_defaults(handler=_cmd_dist_excursion)

    p = dsub.add_parser("dh", help="tree distance between two times of one excursion")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)
    _common_flags(p)
    p.set_defaults(handler=_cmd_dist_dh)

    p = sub.add_parser("code-excursion", help="finite space coded by an excursion")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--resolution", default=None, help="comma list of extra cut times")
    _common_flags(p)
    p.set_defaults(handler=_cmd_code_excursion)

    p = sub.add_parser("glue", help="glue two spaces and take the Prohorov distance")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--pairs", default=None, help='JSON like "[[0,0],[1,2]]"')
    p.add_argument("--eps", default=None)
    p.add_argument("--check", action="store_true", help="also verify the glued triangle inequality")
    p.add_argument("--budget", type=int, default=32, help="random repairs tried without --pairs")
    _common_flags(p)
    p.set_defaults(handler=_cmd_glue)

    p = sub.add_parser("experiment", help="seeded experiment reports")
    p.add_argument(
        "name",
        choices=("theorem-check", "lipschitz", "counterexample", "continuity"),
    )
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--n-list", default="2,3,4,6,8")
    p.add_argument("--schedule", type=int, default=8)
    p.add_argument("--h", default=None, help="excursion file for the continuity base")
    p.add_argument("--csv", default=None, help="also write the instance table as CSV")
    _common_flags(p)
    p.set_defaults(handler=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    label = args.command if args.command != "dist" else f"dist {args.distance}"
    started = time.perf_counter()
    try:
        payload, raw, code = args.handler(args)
    except ValidationError as exc:
        print(f"mmdist {label}: {exc}", file=sys.stderr)
        return 1
    except SizeError as exc:
        print(f"mmdist {label}: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"mmdist {label}: no such file: {exc.filename}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(
            f"mmdist {label}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 1
    text = raw + "\n" if (args.raw and raw is not None) else dumps_json(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    print(f"{label}: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
