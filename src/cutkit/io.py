"""Instance file formats.

Text format (whitespace separated):

    n m c
    u v w          # m edge lines
    s k v1 ... vs  # c part lines: size, budget, then the vertex ids
    matroid ...    # optional matroid section, see below

Matroid section variants:

    matroid uniform K
    matroid partition              # reuse the parts/budgets above
    matroid graphic NV ME          # followed by ME lines "a b"
    matroid explicit COUNT         # followed by COUNT lines "s v1 ... vs"

The JSON mirror carries the same fields under {"schema": "cutkit/1", "n",
"edges", "parts": [{"k", "vertices"}], "matroid"} and is accepted whenever a
file starts with '{'.  3DM description files hold one "x y z" triple per
line.
"""

from __future__ import annotations

import json

from .errors import ParseError
from .forge import ThreeDMInstance
from .graph import ConstrainedInstance, WeightedGraph
from .matroid import (
    ExplicitMatroid,
    GraphicMatroid,
    MatroidOracle,
    PartitionMatroid,
    UniformMatroid,
)

SCHEMA = "cutkit/1"


def _tokens(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_instance_text(text: str):
    """Parse the text format; returns (ConstrainedInstance, matroid or None)."""
    rows = list(_tokens(text))
    if not rows:
        raise ParseError("empty instance file", line=1)
    pos = 0

    def take(expect_len=None, what=""):
        nonlocal pos
        if pos >= len(rows):
            raise ParseError(f"unexpected end of file while reading {what}")
        lineno, toks = rows[pos]
        pos += 1
        if expect_len is not None and len(toks) != expect_len:
            raise ParseError(
                f"expected {expect_len} fields for {what}, got {len(toks)}",
                line=lineno,
            )
        return lineno, toks

    lineno, header = take(3, "header 'n m c'")
    try:
        n, m, c = (int(t) for t in header)
    except ValueError as exc:
        raise ParseError("header fields must be integers", line=lineno) from exc

    edges = []
    for _ in range(m):
        lineno, toks = take(3, "edge 'u v w'")
        try:
            edges.append((int(toks[0]), int(toks[1]), float(toks[2])))
        except ValueError as exc:
            raise ParseError("bad edge line", line=lineno) from exc

    parts, budgets = [], []
    for _ in range(c):
        lineno, toks = take(None, "part line")
        try:
            size, k = int(toks[0]), int(toks[1])
            ids = [int(t) for t in toks[2:]]
        except ValueError as exc:
            raise ParseError("bad part line", line=lineno) from exc
        if len(ids) != size:
            raise ParseError(
                f"part declares {size} vertices but lists {len(ids)}", line=lineno
            )
        parts.append(ids)
        budgets.append(k)

    try:
        graph = WeightedGraph(n, edges)
        inst = ConstrainedInstance(graph, parts, budgets)
    except Exception as exc:
        raise ParseError(str(exc)) from exc

    matroid = None
    if pos < len(rows):
        lineno, toks = take(None, "matroid section")
        if toks[0] != "matroid":
            raise ParseError(f"unexpected trailing line {toks!r}", line=lineno)
        try:
            matroid = _parse_matroid_tokens(toks[1:], lineno, take, inst)
        except ValueError as exc:
            raise ParseError(f"bad matroid section: {exc}", line=lineno) from exc
        if pos < len(rows):
            raise ParseError("unexpected trailing data", line=rows[pos][0])
    return inst, matroid


def _parse_matroid_tokens(toks, lineno, take, inst):
    if not toks:
        raise ParseError("matroid section needs a kind", line=lineno)
    kind = toks[0]
    n = inst.graph.n
    if kind == "uniform":
        if len(toks) != 2:
            raise ParseError("expected 'matroid uniform K'", line=lineno)
        return UniformMatroid(n, int(toks[1]))
    if kind == "partition":
        return PartitionMatroid(n, inst.parts, inst.budgets)
    if kind == "graphic":
        if len(toks) != 3:
            raise ParseError("expected 'matroid graphic NV ME'", line=lineno)
        nv, me = int(toks[1]), int(toks[2])
        if me != n:
            raise ParseError(
                f"graphic matroid needs one auxiliary edge per vertex ({n})",
                line=lineno,
            )
        aux = []
        for _ in range(me):
            ln, t = take(2, "auxiliary edge 'a b'")
            aux.append((int(t[0]), int(t[1])))
        return GraphicMatroid(nv, aux)
    if kind == "explicit":
        if len(toks) != 2:
            raise ParseError("expected 'matroid explicit COUNT'", line=lineno)
        sets = []
        for _ in range(int(toks[1])):
            ln, t = take(None, "independent-set line")
            size = int(t[0])
            ids = [int(v) for v in t[1:]]
            if len(ids) != size:
                raise ParseError("independent-set size mismatch", line=ln)
            sets.append(ids)
        return ExplicitMatroid(n, sets)
    raise ParseError(f"unknown matroid kind {kind!r}", line=lineno)


def _matroid_to_json(m: MatroidOracle):
    if isinstance(m, UniformMatroid):
        return {"kind": "uniform", "k": m.k}
    if isinstance(m, PartitionMatroid):
        return {"kind": "partition"}
    if isinstance(m, GraphicMatroid):
        return {
            "kind": "graphic",
            "aux_vertices": m.aux_vertices,
            "aux_edges": [list(e) for e in m.aux_edges],
        }
    if isinstance(m, ExplicitMatroid):
        return {"kind": "explicit", "sets": [sorted(s) for s in m.maximal]}
    raise ParseError(f"unsupported matroid kind {m.kind!r}")


def _matroid_from_json(obj, inst):
    if not isinstance(obj, dict):
        raise ParseError("matroid section must be a JSON object")
    n = inst.graph.n
    kind = obj.get("kind")
    try:
        if kind == "uniform":
            return UniformMatroid(n, int(obj["k"]))
        if kind == "partition":
            return PartitionMatroid(n, inst.parts, inst.budgets)
        if kind == "graphic":
            if len(obj["aux_edges"]) != n:
                raise ParseError(
                    f"graphic matroid needs one auxiliary edge per vertex ({n})"
                )
            return GraphicMatroid(int(obj["aux_vertices"]), obj["aux_edges"])
        if kind == "explicit":
            return ExplicitMatroid(n, obj["sets"])
    except KeyError as exc:
        raise ParseError(f"{kind} matroid section lacks {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad {kind} matroid section: {exc}") from exc
    raise ParseError(f"unknown matroid kind {kind!r}")


def parse_instance_json(text: str):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc.msg}", line=exc.lineno, column=exc.colno)
    if not isinstance(obj, dict):
        raise ParseError("instance must be a JSON object")
    if obj.get("schema") != SCHEMA:
        raise ParseError(f"unsupported schema {obj.get('schema')!r}")
    try:
        graph = WeightedGraph(obj["n"], [tuple(e) for e in obj["edges"]])
        inst = ConstrainedInstance(
            graph,
            [p["vertices"] for p in obj["parts"]],
            [p["k"] for p in obj["parts"]],
        )
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(str(exc)) from exc
    matroid = None
    if obj.get("matroid") is not None:
        matroid = _matroid_from_json(obj["matroid"], inst)
    return inst, matroid


def parse_instance(text: str):
    """Dispatch on the leading character: '{' means the JSON mirror."""
    if text.lstrip().startswith("{"):
        return parse_instance_json(text)
    return parse_instance_text(text)


def read_instance(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def format_instance_text(inst: ConstrainedInstance, matroid=None) -> str:
    g = inst.graph
    lines = [f"{g.n} {len(g.edges)} {inst.c}"]
    for u, v, w in g.edges:
        lines.append(f"{u} {v} {w!r}")
    for part, k in zip(inst.parts, inst.budgets):
        ids = " ".join(str(v) for v in sorted(part))
        lines.append(f"{len(part)} {k} {ids}".rstrip())
    if matroid is not None:
        if isinstance(matroid, UniformMatroid):
            lines.append(f"matroid uniform {matroid.k}")
        elif isinstance(matroid, PartitionMatroid):
            lines.append("matroid partition")
        elif isinstance(matroid, GraphicMatroid):
            lines.append(
                f"matroid graphic {matroid.aux_vertices} {len(matroid.aux_edges)}"
            )
            for a, b in matroid.aux_edges:
                lines.append(f"{a} {b}")
        elif isinstance(matroid, ExplicitMatroid):
            lines.append(f"matroid explicit {len(matroid.maximal)}")
            for s in matroid.maximal:
                ids = " ".join(str(v) for v in sorted(s))
                lines.append(f"{len(s)} {ids}".rstrip())
        else:
            raise ParseError(f"unsupported matroid kind {matroid.kind!r}")
    return "\n".join(lines) + "\n"


def format_instance_json(inst: ConstrainedInstance, matroid=None) -> str:
    obj = {
        "schema": SCHEMA,
        "n": inst.graph.n,
        "edges": [[u, v, w] for u, v, w in inst.graph.edges],
        "parts": [
            {"k": k, "vertices": sorted(p)} for p, k in zip(inst.parts, inst.budgets)
        ],
        "matroid": _matroid_to_json(matroid) if matroid is not None else None,
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def parse_3dm(text: str) -> ThreeDMInstance:
    triples = []
    top = -1
    for lineno, toks in _tokens(text):
        if len(toks) != 3:
            raise ParseError("expected 'x y z'", line=lineno)
        try:
            x, y, z = (int(t) for t in toks)
        except ValueError as exc:
            raise ParseError("triple fields must be integers", line=lineno) from exc
        triples.append((x, y, z))
        top = max(top, x, y, z)
    if not triples:
        raise ParseError("empty 3DM file", line=1)
    return ThreeDMInstance(top + 1, tuple(sorted(set(triples))))


def read_3dm(path: str) -> ThreeDMInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_3dm(fh.read())
