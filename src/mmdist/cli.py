"""Command-line entry point.

Results go to stdout (or --out) as canonical JSON. Commands that compute
one value take --raw (print just the value) and, except validate, --float
(IEEE doubles instead of exact rationals); a command rejects every flag its
handler does not read. Each command is declared once, in the `_COMMANDS`
table: its words, handler, help and flags. Human notes and timing go to
stderr so stdout stays machine-readable.
Exit codes: 0 success, 1 domain error (invalid input, search budget), 2 usage
error, 3 experiment report with failing checks.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial

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
from .gromov import DEFAULT_SEARCH_BUDGET, box_lambda_detail, gromov_prohorov_detail
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
    load_document,
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


def _scalar_arg(text, flag):
    try:
        return parse_scalar(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"{flag}: invalid literal {json.dumps(text)}") from None


def _nonnegative_arg(value, flag):
    if value < 0:
        raise ValidationError(f"{flag}: expected a nonnegative integer, got {value}")
    return value


def _pairs_arg(text):
    try:
        pairs = json.loads(text)
    except ValueError:  # malformed JSON, or an int past the digit limit
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


# ---------------------------------------------------------------------------
# handlers: each returns (payload, raw string or None, exit code)


def _cmd_validate(args):
    obj = load_document(args.infile)
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
    obj = load_document(args.infile)
    fmt = obj.get("format") if isinstance(obj, dict) else None
    if fmt == MMSPACE_FORMAT:
        payload = space_to_obj(canonicalize(space_from_obj(obj)))
    elif fmt == EXCURSION_FORMAT:
        payload = excursion_to_obj(normalize(excursion_from_obj(obj)))
    else:
        raise ValidationError(f"canonicalize: unsupported document format {fmt!r}")
    return payload, None, 0


def _cmd_sample(args):
    space = sample_mm_space(args.seed, n_max=args.n_max)
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
    payload = _value_payload(value, args.float)
    return payload, format_scalar(value), 0


def _box_search(args, search, *params):
    """`search(a, b, *params, budget)` on --a and --b, with its exact flag and witness."""
    a = load_space(args.a)
    b = load_space(args.b)
    res = search(a, b, *params, _nonnegative_arg(args.budget, "--budget"))
    payload = _value_payload(res.value, args.float)
    payload["exact"] = res.exact
    if args.witness:
        payload["pairs"] = [list(p) for p in res.pairs]
    return res, payload


def _cmd_dist_gp(args):
    res, payload = _box_search(args, gromov_prohorov_detail)
    payload["box_half"] = _value_payload(res.box_value, args.float)["value"]
    return payload, format_scalar(res.value), 0


def _cmd_dist_box(args):
    res, payload = _box_search(args, box_lambda_detail, _scalar_arg(args.lam, "--lambda"))
    payload["lambda"] = format_scalar(res.lam)
    return payload, format_scalar(res.value), 0


def _cmd_dist_excursion(args):
    h = load_excursion(args.a)
    g = load_excursion(args.b)
    tol = DEFAULT_GAMMA_TOL
    if args.gamma_tol is not None:
        tol = _scalar_arg(args.gamma_tol, "--gamma-tol")
    if tol < 0:
        raise ValidationError(f"--gamma-tol: expected a nonnegative number, got {args.gamma_tol!r}")
    res = d_excursion_detail(h, g, tol=tol, budget=_nonnegative_arg(args.budget, "--budget"))
    payload = _value_payload(res.value, args.float)
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
    return _value_payload(value, args.float), format_scalar(value), 0


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
        res = glued_upper_bound(a, b)
        payload = _value_payload(res.value, args.float)
        payload["eps"] = format_scalar(res.eps)
        payload["exact"] = res.exact
        payload["source"] = res.source
        payload["pairs"] = [list(p) for p in res.pairs]
        return payload, format_scalar(res.value), 0
    if args.pairs is None or args.eps is None:
        raise ValidationError("glue: --pairs and --eps must be given together")
    glued = build_glued_space(a, b, _pairs_arg(args.pairs), _scalar_arg(args.eps, "--eps"))
    value = prohorov_of_glue(glued)
    payload = _value_payload(value, args.float)
    payload["eps"] = format_scalar(glued.eps)
    if args.check:
        payload["triangle_violations"] = [list(t) for t in check_triangle(glued)]
    return payload, format_scalar(value), 0


def _cmd_experiment(run, args):
    kwargs = {k: v for k, v in vars(args).items() if k in ("seed", "count", "n_max", "schedule")}
    if "n_list" in args:
        kwargs["n_list"] = _int_list_arg(args.n_list, "--n-list")
    if "h" in args:
        kwargs["h"] = load_excursion(args.h)
    report = run(**kwargs)
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
# commands: each is declared once, with only the flags its handler reads;
# every command also takes --out, which main writes

_SWITCH = {"action": "store_true"}
_REQUIRED = {"required": True}
_IN = {"--in": {"dest": "infile", **_REQUIRED}}
_RAW = {"--raw": {**_SWITCH, "help": "print only the bare value"}}
_FLOAT = {"--float": {**_SWITCH, "help": "emit IEEE doubles instead of rationals"}}
# one value from the two files --a and --b
_PAIR = {**_RAW, **_FLOAT, "--a": _REQUIRED, "--b": _REQUIRED}
_SEARCH = {"--budget": {"type": int, "default": DEFAULT_SEARCH_BUDGET}, "--witness": _SWITCH}
_CSV = {"--csv": {"help": "also write the instance table as CSV"}}
# an experiment flag the user did not give stays absent, so the run_* default applies
_ABSENT = {"default": argparse.SUPPRESS}
_ABSENT_INT = {"type": int, **_ABSENT}

# words -> (handler, help, flags), in the order the help lists them
_COMMANDS = {
    "validate": (_cmd_validate, "report violations of a space or excursion file", {**_RAW, **_IN}),
    "canonicalize": (_cmd_canonicalize, "canonical form of a space (or normalized excursion)", _IN),
    "sample": (
        _cmd_sample,
        "deterministic random space on a rational grid",
        {"--seed": {"type": int, "default": 0}, "--n-max": {"type": int, "default": 5}},
    ),
    "dist prohorov": (_cmd_dist_prohorov, "two measures on one space", _PAIR),
    "dist gp": (_cmd_dist_gp, "Gromov-Prohorov distance of two spaces", {**_PAIR, **_SEARCH}),
    "dist box": (
        _cmd_dist_box,
        "box metric at a given lambda",
        {**_PAIR, "--lambda": {"dest": "lam", **_REQUIRED}, **_SEARCH},
    ),
    "dist excursion": (
        _cmd_dist_excursion,
        "epigraph plus level-measure distance",
        {**_PAIR, "--gamma-tol": {}, "--budget": {"type": int, "default": DEFAULT_GAMMA_BUDGET}},
    ),
    "dist dh": (
        _cmd_dist_dh,
        "tree distance between two times of one excursion",
        {**_RAW, **_FLOAT, **_IN, "--s": _REQUIRED, "--t": _REQUIRED},
    ),
    "code-excursion": (
        _cmd_code_excursion,
        "finite space coded by an excursion",
        {**_IN, "--resolution": {"help": "comma list of extra cut times"}},
    ),
    "glue": (
        _cmd_glue,
        "glue two spaces and take the Prohorov distance",
        {
            **_PAIR,
            "--pairs": {"help": 'JSON like "[[0,0],[1,2]]"'},
            "--eps": {},
            "--check": {**_SWITCH, "help": "also verify the glued triangle inequality"},
        },
    ),
    "experiment theorem-check": (
        partial(_cmd_experiment, run_theorem_check),
        "gp = glue of gp's witness = half box",
        {**_CSV, "--seed": _ABSENT_INT, "--count": _ABSENT_INT, "--n-max": _ABSENT_INT},
    ),
    "experiment lipschitz": (
        partial(_cmd_experiment, run_lipschitz_check),
        "coded gp <= 2 sup|h - g|",
        {**_CSV, "--seed": _ABSENT_INT, "--count": _ABSENT_INT},
    ),
    "experiment counterexample": (
        partial(_cmd_experiment, run_counterexample),
        "the comb-family table",
        {**_CSV, "--n-list": _ABSENT},
    ),
    "experiment continuity": (
        partial(_cmd_experiment, run_continuity_check),
        "perturbation envelopes",
        {
            **_CSV,
            "--seed": _ABSENT_INT,
            "--schedule": _ABSENT_INT,
            "--h": {**_ABSENT, "help": "excursion file for the continuity base"},
        },
    ),
}
# group -> (dest, help); the dest names the missing word in a usage error
_GROUPS = {"dist": ("distance", "distances"), "experiment": ("name", "seeded experiment reports")}


def _leaf(parser, words):
    """`parser` as the command `words`, with that command's flags."""
    parser.set_defaults(words=words, usage_of=parser)
    parser.add_argument("--out", help="write the JSON payload here instead of stdout")
    for flag, kwargs in _COMMANDS[words][2].items():
        parser.add_argument(flag, **kwargs)
    return parser


def _tree() -> argparse.ArgumentParser:
    """Every command under one parser, for the top-level and group usage texts."""
    parser = argparse.ArgumentParser(
        prog="mmdist",
        description="Exact distances between metric measure spaces and excursion-coded trees.",
    )
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for words, (_, help, _) in _COMMANDS.items():
        group, _, name = words.rpartition(" ")
        if group not in subparsers:
            dest, group_help = _GROUPS[group]
            group_parser = subparsers[""].add_parser(group, help=group_help)
            subparsers[group] = group_parser.add_subparsers(dest=dest, required=True)
        _leaf(subparsers[group].add_parser(name, help=help), words)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # leading words that name a command build its parser alone; -h, a missing
    # or an unknown command build the whole tree for its usage texts
    words = next((w for w in _COMMANDS if argv[: w.count(" ") + 1] == w.split()), None)
    if words:
        parser = _leaf(argparse.ArgumentParser(prog=f"mmdist {words}"), words)
        argv = argv[words.count(" ") + 1 :]
    else:
        parser = _tree()
    try:
        # a flag the command does not read is reported with its own usage
        args, unread = parser.parse_known_args(argv)
        if unread:
            args.usage_of.error(f"unrecognized arguments: {' '.join(unread)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    label = args.words
    started = time.perf_counter()
    try:
        payload, raw, code = _COMMANDS[label][0](args)
        text = raw + "\n" if getattr(args, "raw", False) else dumps_json(payload)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(text)
            print(f"wrote {args.out}", file=sys.stderr)
        else:
            sys.stdout.write(text)
    except (ValidationError, SizeError) as exc:
        print(f"mmdist {label}: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"mmdist {label}: no such file: {exc.filename}", file=sys.stderr)
        return 1
    except OSError as exc:  # a directory given as a file, a file we may not write
        reason = (exc.strerror or str(exc)).lower()
        print(f"mmdist {label}: {reason}: {exc.filename}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(
            f"mmdist {label}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 1
    print(f"{label}: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
