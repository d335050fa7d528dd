"""Command-line interface.

Exit codes: 0 on success, 1 when a verification fails (census mismatch,
ladder violations, inadmissible arc system), 2 on usage or parse errors, 141
(128 + SIGPIPE) when the reader of stdout closed it before the output ended.
All JSON output has stable key order, so identical invocations produce
byte-identical bytes.
"""

import argparse
import functools
import json
import os
import sys

from .arcs import refined_matching, system_from_json, system_to_json, validate_system
from .census import census_entry, census_to_json, census_verify, entry_to_json
from .filling import _interval_json, guaranteed_interval
from .filling import analyze_multislope, merge_reports, report_to_json
from .ladders import kernel_backend, verify_ladders
from .monodromy import ORBIT_LENGTH_CAP, BoundaryOrbit, DegeneracyLocus, action_from_json
from .slopes import canonical_meridian, format_slope, parse_slope
from .tracks import (
    CONFIG_PRESETS,
    build_boundary_track,
    carried_slopes,
    config_from_json,
    track_from_json,
    track_to_json,
    weight_cone,  # not called here; perfbench traces and checks it at this name
)

__all__ = ["main"]


_escape = json.encoder.encode_basestring_ascii


def _dumps(doc, pad="\n"):
    """``json.dumps`` with ``indent=2``, byte for byte, on JSON types alone.

    The stdlib encodes in pure Python whenever ``indent`` is set; here strings
    go through its C escaper and each container is one ``str.join``.  A float,
    a non-str key (which the stdlib would turn into a string) or any other
    type raises ``TypeError``, so no floating point leaves the library.
    ``pad`` is a newline and the indent of the line ``doc`` starts on.
    """
    kind = type(doc)
    if kind is str:
        return _escape(doc)
    if kind is int:
        return int.__repr__(doc)
    inner = pad + "  "
    # Containers write their str and int leaves themselves, saving a call
    # per leaf; anything else goes through the checks below.
    if kind is dict:
        if not doc:
            return "{}"
        # The escaper raises TypeError on a key that is not a str.
        items = [
            _escape(key) + ": " + (
                _escape(val) if type(val) is str
                else int.__repr__(val) if type(val) is int
                else _dumps(val, inner)
            )
            for key, val in doc.items()
        ]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if kind is list or kind is tuple:
        if not doc:
            return "[]"
        items = [
            _escape(val) if type(val) is str
            else int.__repr__(val) if type(val) is int
            else _dumps(val, inner)
            for val in doc
        ]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if kind is bool:
        return "true" if doc else "false"
    if doc is None:
        return "null"
    raise TypeError("Object of type %s is not JSON serializable" % kind.__name__)


def _emit(doc, args):
    if getattr(args, "output", "json") == "json":
        print(_dumps(doc))
    else:
        _emit_text(doc)


def _emit_text(doc, indent=0):
    """``doc`` as indented ``key: value`` and ``- item`` lines.  Strings and
    ints print as they are; booleans, null and empty lists and objects as
    JSON writes them."""
    pad = "  " * indent
    if isinstance(doc, dict):
        for key, val in doc.items():
            if isinstance(val, (dict, list)) and val:
                print("%s%s:" % (pad, key))
                _emit_text(val, indent + 1)
            else:
                print("%s%s: %s" % (pad, key, _text_scalar(val)))
    elif isinstance(doc, list):
        for val in doc:
            if isinstance(val, (dict, list)) and val:
                _emit_text(val, indent)
                print()
            else:
                print("%s- %s" % (pad, _text_scalar(val)))


def _text_scalar(val):
    return val if type(val) is str else _dumps(val)


def _parse_slope_arg(text):
    s, normalized = parse_slope(text)
    if normalized:
        print(
            "warning: slope %r normalized to %s" % (text, format_slope(s)),
            file=sys.stderr,
        )
    return s


def _parse_locus(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("bad locus %r: expected p,q" % text)
    try:
        p, q = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError("bad locus %r: expected integers p,q" % text) from None
    return DegeneracyLocus(p, q)


def _single_orbit(locus, c):
    if c < 1:
        raise ValueError("orbit length must be >= 1")
    if c > ORBIT_LENGTH_CAP:
        raise ValueError("--orbit-length must be at most %d, not %d" % (ORBIT_LENGTH_CAP, c))
    return BoundaryOrbit(tuple("C%d" % i for i in range(c)), locus)


def _cmd_interval(args):
    interval = guaranteed_interval(_parse_locus(args.locus), args.orbit_length)
    _emit({"schema": "interval_v1", **_interval_json(interval)}, args)
    return 0


def _cmd_analyze(args):
    orbit = _single_orbit(_parse_locus(args.locus), args.orbit_length)
    slopes = [_parse_slope_arg(text) for text in args.slope or []]
    reports = [analyze_multislope([orbit], [s]) for s in slopes]
    _emit(report_to_json(merge_reports(orbit, reports)), args)
    return 0


def _cmd_census(args):
    if args.census_cmd == "list":
        _emit(census_to_json(), args)
        return 0
    if args.census_cmd == "show":
        _emit(entry_to_json(census_entry(args.name)), args)  # KeyError -> handled by main
        return 0
    # verify
    records = census_verify()
    rows = [
        {
            "name": r.name,
            "computed": _interval_json(r.computed),
            "status": r.status,
            "detail": r.detail,
        }
        for r in records
    ]
    failed = any(r.status == "Mismatch" for r in records)
    _emit({"schema": "census_verify_v1", "records": rows, "ok": not failed}, args)
    return 1 if failed else 0


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("%s: JSON nested too deeply to read" % path) from None
    if not isinstance(doc, dict):
        raise ValueError("%s: the top level must be a JSON object" % path)
    return doc


def _cmd_arcs(args):
    if args.arcs_cmd == "refine":
        system = refined_matching(action_from_json(_load_json(args.input)))
        _emit(system_to_json(system), args)
        return 0
    # validate
    system = system_from_json(_load_json(args.input))
    violations = validate_system(system)
    _emit(
        {
            "schema": "arc_validation_v1",
            "admissible": not violations,
            "violations": [{"kind": v.kind, "detail": v.detail} for v in violations],
        },
        args,
    )
    return 1 if violations else 0


def _carried_doc(track):
    cs = carried_slopes(track)
    doc = {
        "schema": "carried_slopes_v1",
        "kind": cs.kind,
        "extreme_rays": cs.extreme_rays,
        "extreme_classes": [list(c) for c in cs.extreme_classes],
    }
    if cs.kind == "single":
        doc["slope"] = format_slope(cs.slope)
    if cs.kind == "arc":
        doc["arc"] = {
            **_interval_json(cs.arc),
            "end_a_attained": cs.arc.closed_a,
            "end_b_attained": cs.arc.closed_b,
        }
    return doc


def _cmd_track(args):
    if args.track_cmd == "build":
        locus = _parse_locus(args.locus)
        if args.orbit_length >= 2 and args.orbit_length % 2 == 0 and locus.q % 2:
            raise ValueError(
                "--orbit-length %d: on a locus with odd q the orbit length is odd; "
                "an even one lies outside the paper's domain" % args.orbit_length
            )
        config = None
        if args.config:
            config = CONFIG_PRESETS.get(args.config) or config_from_json(_load_json(args.config))
        track = build_boundary_track(locus, args.orbit_length, config)
        _emit(track_to_json(track), args)
        return 0
    # slopes
    track = track_from_json(_load_json(args.input))
    _emit(_carried_doc(track), args)
    return 0


def _cmd_ladder(args):
    if args.cases < 0:
        raise ValueError("--cases must be a count >= 0, not %d" % args.cases)
    summary = verify_ladders(
        cases=args.cases,
        seed=args.seed,
        max_levels=args.levels,
        max_rungs_per_gap=args.rungs,
        alternating=not args.control,
    )
    _emit(summary, args)
    if args.control:
        return 0
    return 1 if summary["violations"] else 0


def _cmd_coords(args):
    delta = _parse_slope_arg(args.delta)
    k, new_delta = canonical_meridian(delta)
    _emit(
        {
            "schema": "canonical_meridian_v1",
            "delta": format_slope(delta),
            "k": k,
            "new_delta": format_slope(new_delta),
        },
        args,
    )
    return 0


@functools.cache
def _build_parser():
    """The argparse tree, built on the first call and reused by every later
    ``main()`` in the process: parsing leaves no state behind in it."""
    parser = argparse.ArgumentParser(
        prog="dehnfill",
        description="Slope calculus, guaranteed filling intervals and "
        "train-track checks for fibered boundary tori (kernel backend: %s)"
        % kernel_backend(),
    )
    parser.add_argument("--output", choices=("json", "text"), default="json")
    # Accepted after the subcommand too; SUPPRESS keeps a sub-level absence
    # from clobbering a value given before the subcommand.
    output_parent = argparse.ArgumentParser(add_help=False)
    output_parent.add_argument(
        "--output", choices=("json", "text"), default=argparse.SUPPRESS
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    parser.commands = sub.choices  # name -> subcommand parser, for _parse_args

    p = sub.add_parser("interval", parents=[output_parent], help="guaranteed filling interval for a locus")
    p.add_argument("--locus", required=True, metavar="p,q")
    p.add_argument("--orbit-length", type=int, required=True)
    p.set_defaults(func=_cmd_interval)

    p = sub.add_parser("analyze", parents=[output_parent], help="per-slope filling report")
    p.add_argument("--locus", required=True, metavar="p,q")
    p.add_argument("--orbit-length", type=int, required=True)
    p.add_argument("--slope", action="append", metavar="S")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("census", help="embedded worked examples")
    census_sub = p.add_subparsers(dest="census_cmd", required=True)
    census_sub.add_parser("list", parents=[output_parent])
    show = census_sub.add_parser("show", parents=[output_parent])
    show.add_argument("name")
    census_sub.add_parser("verify", parents=[output_parent])
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("arcs", help="admissible arc systems")
    arcs_sub = p.add_subparsers(dest="arcs_cmd", required=True)
    refine = arcs_sub.add_parser("refine", parents=[output_parent])
    refine.add_argument("--input", required=True)
    validate = arcs_sub.add_parser("validate", parents=[output_parent])
    validate.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_arcs)

    p = sub.add_parser("track", help="boundary train tracks")
    track_sub = p.add_subparsers(dest="track_cmd", required=True)
    build = track_sub.add_parser("build", parents=[output_parent])
    build.add_argument("--locus", required=True, metavar="p,q")
    build.add_argument("--orbit-length", type=int, required=True)
    build.add_argument("--config", help="preset name or JSON file")
    slopes = track_sub.add_parser("slopes", parents=[output_parent])
    slopes.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("ladder", help="leaf-trace ladder checks")
    ladder_sub = p.add_subparsers(dest="ladder_cmd", required=True)
    verify = ladder_sub.add_parser("verify", parents=[output_parent])
    verify.add_argument("--levels", type=int, default=8)
    verify.add_argument("--rungs", type=int, default=6)
    verify.add_argument("--cases", type=int, default=100)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--control", action="store_true")
    p.set_defaults(func=_cmd_ladder)

    p = sub.add_parser("coords", help="canonical meridian selection")
    coords_sub = p.add_subparsers(dest="coords_cmd", required=True)
    canonical = coords_sub.add_parser("canonical", parents=[output_parent])
    canonical.add_argument("--delta", required=True, metavar="u/v")
    p.set_defaults(func=_cmd_coords)

    return parser


def _parse_args(parser, argv):
    """``parser.parse_args(argv)``, through the subcommand's parser alone
    when ``argv`` starts with a subcommand name.

    The top level's subcommand positional takes every token after the name
    and hands them to that parser, so parsing them there directly gives the
    same namespace, and the same errors and help, with one argparse level
    less.  Tokens that parser leaves over, and an ``argv`` that starts with
    anything else, go to the top level, which reports them itself.
    """
    if argv and argv[0] in parser.commands:
        args = argparse.Namespace(output=parser.get_default("output"), cmd=argv[0])
        args, extras = parser.commands[argv[0]].parse_known_args(argv[1:], args)
        if not extras:
            return args
    return parser.parse_args(argv)


def main(argv=None):
    parser = _build_parser()
    args = _parse_args(parser, sys.argv[1:] if argv is None else argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader has gone, so there is no one to tell.  Output still
        # buffered would fail again when the interpreter flushes stdout at
        # exit, so stdout is pointed at the null device first (the SIGPIPE
        # note in the Python docs of the signal module).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, KeyError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
