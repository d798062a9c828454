"""Command-line surface: one command per construction, JSON reports out.

Every command reads presentation files, prints a deterministic report on
standard output, and exits 0 on success, 1 on a mathematical failure
(inconsistent input, failed certification, ...), 2 on a usage error or on
a file that cannot be read or parsed.  `deform` is the exception to the
report rule: it prints a presentation file so its output can be fed
straight back in.

The argv grammar is read off COMMANDS:

    nilpc [-h] command [args ...]

The command comes first.  Its positionals follow in order; its options,
`--opt value` or `--opt=value`, may come before, between or after them.
An unambiguous prefix names a long option (`--k` is `--kind`), a repeated
option keeps its last value, and `--` makes every later token a
positional.  A token is an option when it starts with '-', unless it is
'-' alone, a negative number or holds a space: `--d -1` passes -1, and a
value that looks like an option is given as `--d=-1,2`.

`-h` or `--help` in place of the command prints the command list;
`nilpc <cmd> --help` prints `usage: nilpc <cmd> ...`, the command's
description and one line per argument.  Both exit 0.  A usage error (an
unknown command or option, a missing or extra argument, a missing value,
a bad choice, or a value its type refuses) prints the usage line and
`nilpc <cmd>: error: <what>` on standard error and raises SystemExit(2).
"""

import json
import sys
from types import SimpleNamespace
from typing import List, NoReturn, Optional, Sequence, Tuple

# Every command's modules load here, not inside the command: a caller that
# forks one job per command from a process that imported only this module,
# as the benchmark's reports and family workloads do, would otherwise
# compile them inside every job.
from . import files
from . import presentation as pc
from . import subgroups as sg
from .abelian import torsion_subgroup
from .bilinear import SeriesError
from .deformation import DeformError, abdef, adapt_basis, \
    enumerate_deformations
from .morphisms import HomError, hom_from_images, image_index, \
    invariant_report, is_inverse_pair, spot_check
from .presentation import PcPresentation, PresentationError
from .refined import refined_ring, refined_series
from .scalars import (
    ScalarRing,
    ScalarRingError,
    multiplication_pairing,
    prime_decomposition_zero,
    scalar_ring,
)
from .series import hirsch_length, key_subgroups


def _print_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _rows(s: sg.Subgroup) -> List[List[int]]:
    return [list(r) for r in s.rows]


def _enc(periods) -> List[int]:
    return [0 if e is None else e for e in periods]


def _ring_summary(ring: ScalarRing) -> dict:
    return {
        "rank": len(ring.periods),
        "periods": _enc(ring.periods),
        "order": ring.order(),
        "unit": list(ring.unit),
        "commutative": ring.is_commutative,
    }


def _parse_d(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",")) if text else ()
    except ValueError:
        raise ValueError(
            f"{text!r} is not a comma-separated integer list") from None


def _parse_c(text: str) -> Tuple[Tuple[int, ...], ...]:
    try:
        if not text:
            return ()
        return tuple(
            tuple(int(v) for v in row.split(","))
            for row in text.split(";"))
    except ValueError:
        raise ValueError(
            f"{text!r} is not a semicolon-separated matrix") from None


def _cmd_check(args) -> int:
    p = files.load(args.file, check=False)
    report = pc.consistency_check(p)
    _print_json({
        "command": "check",
        "name": p.name,
        "rank": p.m,
        "consistent": report.ok,
        "failures": [
            {"kind": f.kind, "j": f.j, "i": f.i, "k": f.k,
             "lhs": list(f.lhs), "rhs": list(f.rhs)}
            for f in report.failures],
    })
    return 0 if report.ok else 1


def _cmd_analyze(args) -> int:
    p = files.load(args.file)
    ks = key_subgroups(p)
    _print_json({
        "command": "analyze",
        "name": p.name,
        "rank": p.m,
        "hirsch": hirsch_length(p),
        "class": len(ks.lower_central) - 1,
        "center": _rows(ks.center),
        "derived": _rows(ks.derived),
        "derived_isolator": _rows(ks.derived_isolator),
        "torsion": _rows(torsion_subgroup(p)),
        "m_subgroup": _rows(ks.m_sub),
        "n_subgroup": _rows(ks.n_sub),
        "free_complement": _rows(ks.g0),
        "mn_invariants": _enc(ks.mn.periods),
        "n": ks.n,
        "p": ks.p,
        "e": ks.e,
        "regular": ks.regular,
        "tame": ks.tame,
    })
    return 0


def _central_series(p: PcPresentation, kind: str) -> List[sg.Subgroup]:
    """The lower or upper central series, from G down to 1."""
    if kind == "upper":
        return list(reversed(sg.upper_central_series(p)))
    return sg.lower_central_series(p)


def _cmd_series(args) -> int:
    p = files.load(args.file)
    if args.kind != "refined":
        _print_json({
            "command": "series", "kind": args.kind, "name": p.name,
            "terms": [_rows(t) for t in _central_series(p, args.kind)]})
        return 0
    rs = refined_series(p)
    _print_json({
        "command": "series",
        "kind": "refined",
        "name": p.name,
        "upper_chain": [
            {"label": label, "rows": _rows(term)}
            for label, term in rs.upper_chain],
        "left_chain": [
            {"label": label, "rows": _rows(term)}
            for label, term in rs.left_chain],
        "gap_section": _enc(rs.gap_section.periods),
        # the refined ring is the pairing ring (see refined's docstring)
        "base_ring": _ring_summary(rs.ring),
        "ring": _ring_summary(rs.ring),
        "actions": [
            {"chain": a.chain, "top": a.top, "bottom": a.bottom,
             "kind": a.kind,
             "section": _enc(a.section.periods),
             "matrices": (None if a.matrices is None
                          else [[list(row) for row in m]
                                for m in a.matrices])}
            for a in rs.actions],
    })
    return 0


def _cmd_scalars(args) -> int:
    p = files.load(args.file)
    # refined_ring checks that the chains' conditions leave the whole
    # pairing ring, so it is printed as both; no series means the lower
    # central series
    b, ring, _, _ = refined_ring(
        p, _central_series(p, "upper") if args.series == "upper" else None)
    _print_json({
        "command": "scalars",
        "series": args.series,
        "name": p.name,
        "left": _enc(b.left.periods),
        "right": [_enc(r.periods) for r in b.right],
        "out": [_enc(o.periods) for o in b.out],
        "tables": [[[list(cell) for cell in row] for row in t]
                   for t in b.tables],
        # true by construction: see the theorem in bilinear's docstring
        "left_nondegenerate": True,
        "right_nondegenerate": True,
        "full": True,
        "pairing_ring": _ring_summary(ring),
        "refined_ring": _ring_summary(ring),
    })
    return 0


def _cmd_adapt(args) -> int:
    p = files.load(args.file)
    a = adapt_basis(p)
    _print_json({
        "command": "adapt",
        "name": p.name,
        "i0": a.i0, "i1": a.i1, "i2": a.i2,
        "n": a.n, "p": a.p, "e": a.e,
        "presentation": files.presentation_to_dict(a.pres),
        "new_in_old": [list(x) for x in a.new_in_old],
    })
    return 0


def _cmd_deform(args) -> int:
    p = files.load(args.file)
    a = adapt_basis(p)
    q = abdef(a, args.d, args.c).pres
    named = PcPresentation(f"{p.name} deformed", q.periods, q.powers,
                           q.commutators)
    sys.stdout.write(files.emit(named))
    return 0


def _cmd_enumerate(args) -> int:
    p = files.load(args.file)
    a = adapt_basis(p)
    survey = enumerate_deformations(a)
    _print_json({
        "command": "enumerate",
        "name": p.name,
        "bound": survey.bound,
        "count": len(survey.classes),
        "classes": [
            {"moduli": list(cls.moduli),
             "components": [list(c) for c in cls.components],
             "d": list(d),
             "c": [list(row) for row in c]}
            for cls, d, c in survey.representatives],
    })
    return 0


def _read_hom(src: PcPresentation, dst: PcPresentation, map_path: str):
    words = files.parse_hom_map(files.read_text(map_path), src.m)
    for i, word in enumerate(words):
        for k, _ in word:
            if not 1 <= k <= dst.m:
                raise files.FileFormatError(
                    f"image {i + 1}: letter {k} is not a generator of "
                    f"{dst.name}, which has rank {dst.m}")
    images = tuple(pc.normal_form(dst, w) for w in words)
    return hom_from_images(src, dst, images)


def _cmd_hom(args) -> int:
    src = files.load(args.source)
    dst = files.load(args.target)
    try:
        h = _read_hom(src, dst, args.map)
    except HomError as exc:
        _print_json({
            "command": "hom",
            "certified": False,
            "reason": str(exc),
            "relation": list(exc.relation) if exc.relation else None,
        })
        return 1
    sub, idx = image_index(h)
    payload = {
        "command": "hom",
        "source": src.name,
        "target": dst.name,
        "certified": True,
        "image_index": idx,
        "image_rows": _rows(sub),
    }
    code = 0
    if args.verify:
        ok = spot_check(h)
        payload["spot_check"] = ok
        if not ok:
            code = 1
    _print_json(payload)
    return code


def _cmd_inverse_pair(args) -> int:
    src = files.load(args.source)
    dst = files.load(args.target)
    try:
        fwd = _read_hom(src, dst, args.forward)
        bwd = _read_hom(dst, src, args.backward)
    except HomError as exc:
        _print_json({
            "command": "inverse-pair",
            "certified": False,
            "reason": str(exc),
        })
        return 1
    ok = is_inverse_pair(fwd, bwd)
    _print_json({
        "command": "inverse-pair",
        "certified": True,
        "inverse_pair": ok,
    })
    return 0 if ok else 1


def _cmd_invariants(args) -> int:
    p = files.load(args.file)
    r = invariant_report(p)
    # no name field: equivalent groups must print byte-identical reports
    _print_json({
        "command": "invariants",
        "hirsch": r.hirsch,
        "class": r.nilpotency_class,
        "ab_invariants": _enc(r.ab_invariants),
        "mn_order": r.mn_order,
        "p": r.p,
        "n": r.n,
        "e": r.e,
        "regular": r.regular,
        "tame": r.tame,
    })
    return 0


def _cmd_primes(args) -> int:
    ring = scalar_ring(multiplication_pairing(args.zmod))
    factors = prime_decomposition_zero(ring)
    _print_json({
        "command": "primes",
        "modulus": args.zmod,
        "ring_periods": _enc(ring.periods),
        "factors": [
            sorted(list(v) for v in ideal) for ideal in factors],
    })
    return 0


def _arg(name, **options):
    return name, options


FILE = _arg("file", help="presentation file")
PAIR = (_arg("source", help="presentation file of the source group"),
        _arg("target", help="presentation file of the target group"))

# name -> (handler, help, arguments); an argument is a positional or a
# --option, with the keys help, choices, default, type, required and
# action="store_true"
COMMANDS = {
    "check": (_cmd_check, "validate and consistency-check a presentation",
              (FILE,)),
    "analyze": (_cmd_analyze, "key subgroups and adapted markers", (FILE,)),
    "series": (_cmd_series, "central series and refinements", (
        FILE, _arg("--kind", choices=("lower", "upper", "refined"),
                   default="lower", help="which series to print"))),
    "scalars": (_cmd_scalars, "bilinearized pairing and its scalar rings", (
        FILE, _arg("--series", choices=("lower", "upper"),
                   default="lower", help="the central series to pair"))),
    "adapt": (_cmd_adapt, "rewrite on a basis adapted to M >= N >= Is(G')",
              (FILE,)),
    "deform": (_cmd_deform,
               "deform the finite-section power tails; prints a file", (
                   FILE,
                   _arg("--d", type=_parse_d, required=True,
                        help="comma-separated multipliers"),
                   _arg("--c", type=_parse_c, required=True,
                        help="semicolon-separated matrix rows"))),
    "enumerate": (_cmd_enumerate,
                  "survey deformation classes over unit multipliers",
                  (FILE,)),
    "hom": (_cmd_hom, "certify a generator-image map", PAIR + (
        _arg("--map", required=True, help="image word file"),
        _arg("--verify", action="store_true",
             help="also spot-check 200 random pairs"))),
    "inverse-pair": (_cmd_inverse_pair,
                     "certify a two-sided isomorphism witness", PAIR + (
                         _arg("--forward", required=True,
                              help="image word file, source to target"),
                         _arg("--backward", required=True,
                              help="image word file, target to source"))),
    "invariants": (_cmd_invariants, "basis-independent profile of the group",
                   (FILE,)),
    "primes": (_cmd_primes, "factor the zero ideal of a finite ring", (
        _arg("--zmod", type=int, required=True,
             help="modulus of the multiplication ring"),)),
}

TOP_USAGE = "usage: nilpc [-h] command [args ...]"
HELP = ("-h", "--help")


class _UsageError(Exception):
    """Bad argv; _parse_args prints it under the usage line and exits 2."""


def _option(token: str, names) -> Optional[Tuple[Optional[str],
                                                  Optional[str]]]:
    """How token reads against the option names: None for a value, else
    (name, the text after '=' or None), with name None for an unknown
    option.  '-' alone, a negative number and a token holding a space are
    values; an unambiguous prefix names a long option."""
    if token[:1] != "-" or token == "-":
        return None
    flag, eq, text = token.partition("=")
    if flag in names:
        hits = [flag]
    elif flag.startswith("--"):
        hits = [name for name in names if name.startswith(flag)]
    else:
        hits = []
    if len(hits) > 1:
        raise _UsageError(
            f"ambiguous option: {flag} could match {', '.join(hits)}")
    if hits:
        return hits[0], text if eq else None
    whole, dot, frac = token[1:].partition(".")
    if ((whole.isdecimal() or (dot and not whole))
            and (not dot or frac.isdecimal())) or " " in token:
        return None
    return None, None


def _no_value(name: str, text: Optional[str]) -> None:
    if text is not None:
        raise _UsageError(
            f"argument {name}: ignored explicit argument {text!r}")


def _exit_help(lines: Sequence[str]) -> NoReturn:
    sys.stdout.write("\n".join(lines) + "\n")
    raise SystemExit(0)


def _synopsis(name: str, options: dict) -> str:
    if name[0] != "-":
        return name
    if options.get("action") != "store_true":
        name += " " + ("{" + ",".join(options["choices"]) + "}"
                       if "choices" in options else name[2:].upper())
    return name if options.get("required") else f"[{name}]"


def _usage(command: str) -> str:
    return f"usage: nilpc {command} [-h] " + " ".join(
        _synopsis(name, options) for name, options in COMMANDS[command][2])


def _command_help(command: str) -> List[str]:
    _, help_text, arguments = COMMANDS[command]
    return [_usage(command), "", help_text, "", "arguments:"] + [
        f"  {_synopsis(name, options).strip('[]'):<28}  {options['help']}"
        + (f" (default: {options['default']})" if "default" in options
           else "")
        for name, options in arguments] + [
        f"  {'-h, --help':<28}  show this help and exit"]


def _value(name: str, options: dict, text: str):
    try:
        value = options.get("type", str)(text)
    except ValueError as exc:
        raise _UsageError(f"argument {name}: {exc}")
    if "choices" in options and value not in options["choices"]:
        raise _UsageError(
            f"argument {name}: invalid choice: {value!r} (choose from "
            f"{', '.join(map(repr, options['choices']))})")
    return value


def _read_args(command: str, argv: Sequence[str]) -> dict:
    """The values of the command's arguments in argv, by destination."""
    arguments = COMMANDS[command][2]
    spec = dict(arguments)
    names = [name for name in spec if name[0] == "-"] + list(HELP)
    values, positionals, extras = {}, [], []
    tokens = iter(argv)
    for token in tokens:
        if token == "--":  # the rest are values
            positionals.extend(tokens)
            break
        read = _option(token, names)
        if read is None:
            positionals.append(token)
            continue
        name, text = read
        if name is None:
            extras.append(token)
        elif name in HELP:
            _no_value(name, text)
            _exit_help(_command_help(command))
        elif spec[name].get("action") == "store_true":
            _no_value(name, text)
            values[name] = True
        else:
            if text is None:
                text = next(tokens, None)
                if text is None or _option(text, names) is not None:
                    raise _UsageError(f"argument {name}: expected one "
                                      "argument")
            values[name] = _value(name, spec[name], text)
    wanted = [name for name in spec if name[0] != "-"]
    values.update((name, _value(name, spec[name], text))
                  for name, text in zip(wanted, positionals))
    missing = [name for name, options in arguments if name not in values
               and (name[0] != "-" or options.get("required"))]
    if missing:
        raise _UsageError("the following arguments are required: "
                          + ", ".join(missing))
    extras += positionals[len(wanted):]
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return {name.lstrip("-").replace("-", "_"): values.get(
                name, options.get("default", False if "action" in options
                                  else None))
            for name, options in arguments}


def _no_command(argv: Sequence[str]) -> NoReturn:
    """Top-level help, or the usage error of an argv that does not start
    with a command."""
    read = _option(argv[0], HELP) if argv else None
    if read and read[0]:
        _no_value(*read)
        _exit_help([
            TOP_USAGE, "", "Exact computation with polycyclic presentations "
            "of finitely generated nilpotent groups.", "", "commands:"] + [
            f"  {name:<14}{help_text}"
            for name, (_, help_text, _) in COMMANDS.items()] + [
            "", "See nilpc <command> --help for its arguments."])
    if not argv:
        raise _UsageError("the following arguments are required: command")
    if read:
        raise _UsageError(f"unrecognized arguments: {argv[0]}")
    raise _UsageError(
        f"argument command: invalid choice: {argv[0]!r} (choose from "
        f"{', '.join(map(repr, COMMANDS))})")


def _parse_args(argv: Optional[Sequence[str]]) -> SimpleNamespace:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        if command is None:
            _no_command(argv)
        values = _read_args(command, argv[1:])
    except _UsageError as exc:
        usage, prog = ((TOP_USAGE, "nilpc") if command is None
                       else (_usage(command), f"nilpc {command}"))
        sys.stderr.write(f"{usage}\n{prog}: error: {exc}\n")
        raise SystemExit(2)
    return SimpleNamespace(command=command, handler=COMMANDS[command][0],
                           **values)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(argv)
    try:
        return args.handler(args)
    except (files.FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PresentationError, DeformError, HomError, SeriesError,
            ScalarRingError, sg.SubgroupError) as exc:
        _print_json({"command": args.command, "error": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
