"""JSON files for presentations and homomorphism maps.

A presentation file holds name, rank, the period list (0 encodes an
infinite period), and the sparse power and commutator tails.  Parsing
validates the schema, rebuilds the presentation (which enforces the
support and range rules), and by default also runs the consistency
check.  A rank above RANK_CAP is refused before anything is built, as
a PresentationError.  Text that is not a JSON value the parser can
build, such as arrays nested past the recursion limit, or bytes that are
not UTF-8, is a FileFormatError like any other malformed input.  Emission is
deterministic: tails sorted by index, keys in numeric order, fixed
indentation.
"""

import json
from typing import List, Optional, Tuple

from . import presentation as pc
from .presentation import PcPresentation, PresentationError


class FileFormatError(ValueError):
    pass


# The cap bounds the consistency check only for groups of small class: the
# free abelian groups of rank 64 and 100 each check in about 0.1 ms
# (process time, Python 3.11.7, one 2-vCPU Xeon host).  For groups like
# UT_n the class drives the cost, and the cap does not bound it: UT_9
# (rank 36) spends about 1 s in the check, UT_10 (rank 45) about 7 s.
# Every shipped fixture and family presentation has rank at most 10.
RANK_CAP = 64


def presentation_to_dict(p: PcPresentation) -> dict:
    powers = {
        str(i): [[k, e] for k, e in tail]
        for i, tail in sorted(p.powers)}
    commutators = {
        f"{j},{i}": [[k, e] for k, e in tail]
        for (j, i), tail in sorted(p.commutators)}
    return {
        "name": p.name,
        "rank": p.m,
        "periods": [0 if e is None else e for e in p.periods],
        "powers": powers,
        "commutators": commutators,
    }


def emit(p: PcPresentation) -> str:
    d = presentation_to_dict(p)
    lines = ["{"]
    lines.append(f'  "name": {json.dumps(d["name"])},')
    lines.append(f'  "rank": {d["rank"]},')
    lines.append(f'  "periods": {json.dumps(d["periods"])},')

    def block(key: str, mapping: dict, last: bool) -> None:
        tail = "" if last else ","
        if not mapping:
            lines.append(f'  "{key}": {{}}{tail}')
            return
        lines.append(f'  "{key}": {{')
        items = list(mapping.items())
        for pos, (k, v) in enumerate(items):
            comma = "" if pos == len(items) - 1 else ","
            lines.append(f'    {json.dumps(k)}: {json.dumps(v)}{comma}')
        lines.append(f'  }}{tail}')

    block("powers", d["powers"], last=False)
    block("commutators", d["commutators"], last=True)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _is_int(v) -> bool:
    """JSON true and false load as bools, which Python counts as ints."""
    return isinstance(v, int) and not isinstance(v, bool)


def _tail(raw, where: str) -> Tuple[Tuple[int, int], ...]:
    if not isinstance(raw, list):
        raise FileFormatError(f"{where}: tail must be an array")
    out = []
    for pair in raw:
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(_is_int(v) for v in pair)):
            raise FileFormatError(
                f"{where}: tail entries must be [index, exponent] pairs")
        out.append((pair[0], pair[1]))
    return tuple(out)


def presentation_from_dict(d: dict, *, check: bool = True) -> PcPresentation:
    if not isinstance(d, dict):
        raise FileFormatError("top level must be an object")
    for key in ("name", "rank", "periods", "powers", "commutators"):
        if key not in d:
            raise FileFormatError(f"missing field {key!r}")
    name, rank = d["name"], d["rank"]
    if not isinstance(name, str):
        raise FileFormatError("name must be a string")
    if not _is_int(rank) or rank < 0:
        raise FileFormatError("rank must be a non-negative integer")
    if rank > RANK_CAP:
        raise PresentationError(
            f"{name}: rank {rank} is above the cap of {RANK_CAP}")
    raw_periods = d["periods"]
    if (not isinstance(raw_periods, list) or len(raw_periods) != rank
            or not all(_is_int(e) for e in raw_periods)):
        raise FileFormatError(f"periods must be an array of {rank} integers")
    periods: List[Optional[int]] = [None if e == 0 else e
                                    for e in raw_periods]

    if not isinstance(d["powers"], dict):
        raise FileFormatError("powers must be an object")
    powers = []
    for key, raw in d["powers"].items():
        try:
            i = int(key)
        except ValueError:
            raise FileFormatError(f"powers key {key!r} is not an index")
        powers.append((i, _tail(raw, f"powers[{key}]")))
    powers.sort()

    if not isinstance(d["commutators"], dict):
        raise FileFormatError("commutators must be an object")
    commutators = []
    for key, raw in d["commutators"].items():
        parts = key.split(",")
        try:
            j, i = (int(v) for v in parts)
        except ValueError:
            raise FileFormatError(
                f"commutators key {key!r} is not of the form \"j,i\"")
        if not i < j:
            raise FileFormatError(
                f"commutators key {key!r} must have i < j")
        commutators.append(((j, i), _tail(raw, f"commutators[{key}]")))
    commutators.sort()

    p = PcPresentation(
        name=name, periods=tuple(periods),
        powers=tuple(powers), commutators=tuple(commutators))
    if check:
        report = pc.consistency_check(p)
        if not report.ok:
            f = report.failures[0]
            raise PresentationError(
                f"{name}: inconsistent presentation, first failing overlap "
                f"kind={f.kind} at (j={f.j}, i={f.i}, k={f.k})")
    return p


def _json(text: str):
    """The JSON value in text; every way of failing is a FileFormatError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"not valid JSON (line {exc.lineno}, column {exc.colno})")
    except RecursionError:
        raise FileFormatError("not valid JSON: nested too deeply")
    except ValueError as exc:  # e.g. an integer past the digit limit
        raise FileFormatError(f"not valid JSON: {exc}")


def parse(text: str, *, check: bool = True) -> PcPresentation:
    return presentation_from_dict(_json(text), check=check)


def read_text(path: str) -> str:
    """The file's text, with CRLF and CR newlines read as LF, as in text
    mode; bytes that are not UTF-8 are a FileFormatError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(
            f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load(path: str, *, check: bool = True) -> PcPresentation:
    return parse(read_text(path), check=check)


def save(p: PcPresentation, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit(p))


def fixture_names() -> Tuple[str, ...]:
    from importlib import resources  # not at the top: the CLI reads no fixture
    root = resources.files("nilpc") / "fixtures"
    return tuple(sorted(
        entry.name[:-5] for entry in root.iterdir()
        if entry.name.endswith(".json")))


def load_fixture(name: str, *, check: bool = True) -> PcPresentation:
    from importlib import resources
    path = resources.files("nilpc") / "fixtures" / f"{name}.json"
    if not path.is_file():
        raise FileFormatError(f"no fixture named {name!r}")
    return parse(path.read_text(encoding="utf-8"), check=check)


def parse_hom_map(text: str, m: int) -> Tuple[pc.Word, ...]:
    """A map file is an array of m sparse image words."""
    raw = _json(text)
    if not isinstance(raw, list) or len(raw) != m:
        raise FileFormatError(f"map file must hold exactly {m} image words")
    return tuple(_tail(word, f"image {i + 1}")
                 for i, word in enumerate(raw))


def emit_hom_map(words) -> str:
    return json.dumps([[list(pair) for pair in word]
                       for word in words], indent=2) + "\n"
