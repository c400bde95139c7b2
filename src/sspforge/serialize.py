"""JSON documents for instances and artifacts, plus DIMACS CNF.

An instance's payload is its dataclass fields by name, tuples written as
lists; the kind table gives the class to read it back into.

Documents are canonical (sorted keys, fixed indentation) so golden files
diff cleanly and round-trips are byte-stable.  ``dumps`` writes them
byte-equal to ``json.dumps(doc, sort_keys=True, indent=2)`` plus a final
newline, but without the stdlib's pure-Python encoder, which ``json``
falls back to whenever an indent is set: a small recursive writer joins
each container's items once, and writes lists of ints, of strings and
of non-empty int rows with C-level joins and no Python call per element.
Readers check what the checkers rely on (integer payload fields, element
indices inside their universes, a known artifact kind, a non-negative
blow-up factor for each distance measure) and raise ``FormatError``
otherwise.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

from .core import DistanceMeasure, FormatError, indices_of, mask_of
from .problems import (
    KIND_SPECS,
    CnfInstance,
    ProblemKind,
    element_labels,
    universe_size,
)
from .reductions.artifact import BLOWUP, PRESERVING, SSP, ReductionArtifact
from .rr import CombRrInstance, CostRrInstance, RAdjSatInstance, check_partition

SCHEMA_VERSION = 1


_DOC_ERRORS = (KeyError, TypeError, ValueError)
_ARTIFACT_KINDS = (SSP, BLOWUP, PRESERVING)
_MEASURE_NAMES = frozenset(m.value for m in DistanceMeasure)


def _doc_error(what: str, exc: Exception) -> FormatError:
    """FormatError for a ``what`` document that lacks a key (naming it) or
    holds a value of the wrong shape."""
    if isinstance(exc, KeyError):
        return FormatError(f"bad {what} document: missing key {exc}")
    return FormatError(f"bad {what} document: {exc}")


@functools.cache
def _fields(cls) -> tuple[tuple[str, int], ...]:
    """The payload of an instance of ``cls``: each dataclass field's name
    and depth, read off its annotation: 0 for ``int``, 1 for a tuple of
    integers and 2 for a tuple of integer rows."""
    return tuple(
        (f.name, str(f.type).count("tuple[")) for f in dataclasses.fields(cls)
    )


# payload value to field value, and back, by depth
_READ = (int, tuple, lambda rows: tuple(map(tuple, rows)))
_WRITE = (int, list, lambda rows: list(map(list, rows)))
_SHAPES = ("an integer", "a list of integers", "a list of integer rows")


def instance_payload(kind: ProblemKind, inst) -> dict:
    """The instance's dataclass fields by name, tuples written as lists."""
    return {
        name: _WRITE[depth](getattr(inst, name))
        for name, depth in _fields(KIND_SPECS[kind].cls)
    }


def _check_payload(kind: ProblemKind, p) -> None:
    """Every payload field is an integer, a list of integers or a list of
    integer rows; checked by C-level passes over each list."""
    if type(p) is not dict:
        raise FormatError(f"bad {kind.value} payload: not an object")
    for key, v in p.items():
        if type(v) is int:
            continue
        if type(v) is list:
            types = set(map(type, v))
            if types <= {int} or (
                types == {list} and set(map(type, chain.from_iterable(v))) <= {int}
            ):
                continue
        raise FormatError(
            f"bad {kind.value} payload: {key!r} must be an integer, a list of "
            "integers or a list of integer rows"
        )


def instance_from_payload(kind: ProblemKind, p: dict):
    """The instance whose fields are the payload's values under the field
    names, lists read back as tuples; other keys are ignored."""
    _check_payload(kind, p)
    cls = KIND_SPECS[kind].cls
    args = []
    for name, depth in _fields(cls):
        v = p[name]
        # _check_payload leaves an int or a list of all ints or all rows;
        # an empty list fits either depth
        got = 0 if type(v) is int else (type(v[0]) is list) + 1 if v else depth
        if got != depth:
            raise FormatError(
                f"bad {kind.value} payload: {name!r} must be {_SHAPES[depth]}"
            )
        args.append(_READ[depth](v))
    return cls(*args)


def instance_to_doc(kind: ProblemKind, inst) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind.value,
        "payload": instance_payload(kind, inst),
        "universe_labels": element_labels(inst),
    }


def instance_from_doc(doc: dict):
    try:
        kind = ProblemKind(doc["kind"])
        return kind, instance_from_payload(kind, doc["payload"])
    except _DOC_ERRORS as exc:
        raise _doc_error("instance", exc) from exc


def artifact_to_doc(a: ReductionArtifact) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "edge": a.edge,
        "kind": a.kind,
        "source": instance_to_doc(a.source_kind, a.source),
        "target": instance_to_doc(a.target_kind, a.target),
        "f": list(a.f),
        "l_b": indices_of(a.l_b),
        "beta": None
        if a.beta is None
        else {m.value: v for m, v in a.beta},
        "u_on": indices_of(a.u_on),
        "u_off": indices_of(a.u_off),
    }


def _indices(key: str, v, size: int, what: str = "artifact") -> list[int]:
    """``v``, the field ``key`` of a ``what`` document, if it is a list of
    element indices below ``size``; checked by C-level passes over the
    list."""
    if (
        type(v) is not list
        or not set(map(type, v)) <= {int}
        or not all(map(range(size).__contains__, v))
    ):
        raise FormatError(
            f"bad {what} document: {key!r} must list element indices below {size}"
        )
    return v


def artifact_from_doc(doc: dict) -> ReductionArtifact:
    try:
        src_kind, src = instance_from_doc(doc["source"])
        tgt_kind, tgt = instance_from_doc(doc["target"])
        n_src, n_tgt = universe_size(src), universe_size(tgt)
        f = _indices("f", doc["f"], n_tgt)
        if len(f) != n_src:
            raise FormatError(
                f"bad artifact document: 'f' must hold {n_src} indices, "
                f"one per source element, not {len(f)}"
            )
        if len(set(f)) != n_src:
            raise FormatError(
                "bad artifact document: 'f' must map the source elements "
                "to distinct target elements"
            )
        kind = doc["kind"]
        if kind not in _ARTIFACT_KINDS:
            raise FormatError(
                f"bad artifact document: unknown kind {kind!r}, "
                f"expected one of {', '.join(_ARTIFACT_KINDS)}"
            )
        beta = doc.get("beta")
        if beta is None:
            beta_t = None
        elif (
            type(beta) is not dict
            or beta.keys() != _MEASURE_NAMES
            or not set(map(type, beta.values())) <= {int}
            or min(beta.values()) < 0
        ):
            raise FormatError(
                "bad artifact document: 'beta' must map each of "
                f"{', '.join(sorted(_MEASURE_NAMES))} to a non-negative integer"
            )
        else:
            beta_t = tuple((m, beta[m.value]) for m in DistanceMeasure)
        return ReductionArtifact(
            edge=doc["edge"],
            kind=kind,
            source_kind=src_kind,
            source=src,
            target_kind=tgt_kind,
            target=tgt,
            f=tuple(f),
            l_b=mask_of(_indices("l_b", doc.get("l_b", []), n_src)),
            beta=beta_t,
            u_on=mask_of(_indices("u_on", doc.get("u_on", []), n_tgt)),
            u_off=mask_of(_indices("u_off", doc.get("u_off", []), n_tgt)),
        )
    except _DOC_ERRORS as exc:
        raise _doc_error("artifact", exc) from exc


def comb_rr_to_doc(inst: CombRrInstance) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "type": "comb-rr",
        "kind": inst.kind.value,
        "payload": instance_payload(inst.kind, inst.instance),
        "blockable": indices_of(inst.blockable),
        "gamma": inst.gamma,
        "kappa": inst.kappa,
        "measure": inst.measure.value,
    }


def comb_rr_from_doc(doc: dict) -> CombRrInstance:
    try:
        kind = ProblemKind(doc["kind"])
        inst = instance_from_payload(kind, doc["payload"])
        size = universe_size(inst)
        blockable = mask_of(_indices("blockable", doc["blockable"], size, "comb-rr"))
        return CombRrInstance(
            kind=kind,
            instance=inst,
            blockable=blockable,
            gamma=doc["gamma"],
            kappa=doc["kappa"],
            measure=DistanceMeasure(doc["measure"]),
        )
    except _DOC_ERRORS as exc:
        raise _doc_error("comb-rr", exc) from exc


def cost_rr_to_doc(inst: CostRrInstance) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "type": "cost-rr",
        "kind": inst.kind.value,
        "payload": instance_payload(inst.kind, inst.instance),
        "c1": list(inst.c1),
        "c_lo": list(inst.c_lo),
        "c_hi": list(inst.c_hi),
        "t_rr": inst.t_rr,
        "gamma": inst.gamma,
        "kappa": inst.kappa,
        "measure": inst.measure.value,
    }


def cost_rr_from_doc(doc: dict) -> CostRrInstance:
    try:
        kind = ProblemKind(doc["kind"])
        return CostRrInstance(
            kind=kind,
            instance=instance_from_payload(kind, doc["payload"]),
            c1=tuple(doc["c1"]),
            c_lo=tuple(doc["c_lo"]),
            c_hi=tuple(doc["c_hi"]),
            t_rr=doc["t_rr"],
            gamma=doc["gamma"],
            kappa=doc["kappa"],
            measure=DistanceMeasure(doc["measure"]),
        )
    except _DOC_ERRORS as exc:
        raise _doc_error("cost-rr", exc) from exc


def radjsat_to_doc(inst: RAdjSatInstance) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "type": "radjsat",
        "cnf": instance_payload(ProblemKind.THREE_SAT, inst.cnf),
        "x": list(inst.x_vars),
        "y": list(inst.y_vars),
        "z": list(inst.z_vars),
        "gamma": inst.gamma,
    }


def radjsat_from_doc(doc: dict) -> RAdjSatInstance:
    try:
        cnf = instance_from_payload(ProblemKind.THREE_SAT, doc["cnf"])
        return RAdjSatInstance(
            cnf, tuple(doc["x"]), tuple(doc["y"]), tuple(doc["z"]), doc["gamma"]
        )
    except _DOC_ERRORS as exc:
        raise _doc_error("radjsat", exc) from exc


def eae_sat_from_doc(doc: dict):
    """The formula and the X, Y, Z variable tuples of an eae-sat document."""
    try:
        cnf = instance_from_payload(ProblemKind.THREE_SAT, doc["cnf"])
        parts = tuple(doc["x"]), tuple(doc["y"]), tuple(doc["z"])
        check_partition(cnf.n_vars, *parts)
        return (cnf, *parts)
    except _DOC_ERRORS as exc:
        raise _doc_error("eae-sat", exc) from exc


# the scalar writers json itself uses
_str = encode_basestring_ascii
_int = int.__repr__


def _value(x, nl: str) -> str:
    """``x`` as ``json.dumps(..., sort_keys=True, indent=2)`` writes it,
    for a value that starts after ``nl``, the newline plus indent of its
    own line."""
    t = type(x)
    if t is str:
        return _str(x)
    if t is int:
        return _int(x)
    if t is list:
        return _list(x, nl)
    if t is dict:
        return _dict(x, nl)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if t is float:
        # repr, or NaN / Infinity / -Infinity, as json writes floats
        return json.dumps(x)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _dict(x: dict, nl: str) -> str:
    if not x:
        return "{}"
    inner = nl + "  "
    # _str raises TypeError on a key that is not a string
    items = [_str(k) + ": " + _value(x[k], inner) for k in sorted(x)]
    return "{" + inner + ("," + inner).join(items) + nl + "}"


def _list(x: list, nl: str) -> str:
    if not x:
        return "[]"
    inner = nl + "  "
    sep = "," + inner
    types = set(map(type, x))
    if types == {int}:
        body = sep.join(map(_int, x))
    elif types == {str}:
        body = sep.join(map(_str, x))
    elif (
        types == {list}
        and all(x)
        and set(map(type, chain.from_iterable(x))) == {int}
    ):
        # non-empty int rows: every row's ints in one join, the rows in
        # another, with no Python call per element
        deeper = inner + "  "
        rows = map(("," + deeper).join, map(map, repeat(_int), x))
        body = "[" + deeper + (inner + "]" + sep + "[" + deeper).join(rows) + inner + "]"
    else:
        body = sep.join([_value(v, inner) for v in x])
    return "[" + inner + body + nl + "]"


def dumps(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, byte for byte,
    without the stdlib's pure-Python indent encoder."""
    return _value(doc, "\n") + "\n"


def _dimacs_int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise FormatError(f"bad DIMACS token {tok!r}") from None


def parse_dimacs(text: str) -> CnfInstance:
    n_vars = None
    n_clauses = None
    lits: list[int] = []
    clauses: list[tuple[int, ...]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise FormatError(f"bad DIMACS header: {line!r}")
            n_vars, n_clauses = _dimacs_int(parts[2]), _dimacs_int(parts[3])
            continue
        if n_vars is None:
            raise FormatError("DIMACS clauses before header")
        for tok in line.split():
            v = _dimacs_int(tok)
            if v == 0:
                if not lits:
                    raise FormatError("empty DIMACS clause")
                clauses.append(tuple(lits))
                lits = []
            else:
                idx = abs(v) - 1
                if idx >= n_vars:
                    raise FormatError(f"literal {v} exceeds declared variables")
                lits.append(idx if v > 0 else n_vars + idx)
    if lits:
        clauses.append(tuple(lits))
    if n_vars is None:
        raise FormatError("missing DIMACS header")
    if n_clauses is not None and len(clauses) != n_clauses:
        raise FormatError(
            f"DIMACS declares {n_clauses} clauses, found {len(clauses)}"
        )
    return CnfInstance(n_vars, tuple(clauses))


def emit_dimacs(inst: CnfInstance) -> str:
    n = inst.n_vars
    lines = [f"p cnf {n} {len(inst.clauses)}"]
    for c in inst.clauses:
        toks = []
        for lit in c:
            toks.append(str(lit + 1) if lit < n else str(-(lit - n + 1)))
        lines.append(" ".join(toks) + " 0")
    return "\n".join(lines) + "\n"
