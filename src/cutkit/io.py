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
file starts with '{'.  Both formats go through those fields: the text parser
reads tokens into them, `_build` makes the instance and matroid from them,
and `_fields` takes both apart for the two writers.  3DM description files
hold one "x y z" triple per line.
"""

from __future__ import annotations

import json

from .errors import InputError, ParseError, read_text
from .forge import ThreeDMInstance
from .graph import ConstrainedInstance, WeightedGraph
from .matroid import ExplicitMatroid, GraphicMatroid, PartitionMatroid, UniformMatroid

SCHEMA = "cutkit/1"


def _tokens(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_instance_text(text: str):
    """Parse the text format; returns (ConstrainedInstance, matroid or None).

    The tokens become the JSON mirror's fields, and an error in a token
    names its line; `_build` makes the objects.
    """
    rows = list(_tokens(text))
    if not rows:
        raise ParseError("empty instance file", line=1)
    pos = 0

    def take(what, fields=None, least=0):
        nonlocal pos
        if pos >= len(rows):
            raise ParseError(f"unexpected end of file while reading {what}")
        lineno, toks = rows[pos]
        pos += 1
        if len(toks) < least or fields not in (None, len(toks)):
            want = f"at least {least}" if fields is None else fields
            raise ParseError(
                f"expected {want} fields for {what}, got {len(toks)}", line=lineno
            )
        return lineno, toks

    def numbers(lineno, toks, what):
        try:
            return [int(t) for t in toks]
        except ValueError as exc:
            raise ParseError(f"bad {what}: {exc}", line=lineno) from exc

    def listed(what, lead):
        """A line 's [k] v1 ... vs': its `lead` leading numbers and the ids."""
        lineno, toks = take(what, least=lead)
        values = numbers(lineno, toks, what)
        if len(values) - lead != values[0]:
            raise ParseError(
                f"{what} declares {values[0]} ids but lists {len(values) - lead}",
                line=lineno,
            )
        return values[:lead], values[lead:]

    lineno, header = take("header 'n m c'", 3)
    n, m, c = numbers(lineno, header, "header")
    edges = []
    for _ in range(m):
        lineno, (u, v, w) = take("edge 'u v w'", 3)
        try:
            edges.append([int(u), int(v), float(w)])
        except ValueError as exc:
            raise ParseError(f"bad edge line: {exc}", line=lineno) from exc
    parts = []
    for _ in range(c):
        (_, k), ids = listed("part line", 2)
        parts.append({"k": k, "vertices": ids})

    matroid = section = None
    if pos < len(rows):
        section, toks = take("matroid section")
        if toks[0] != "matroid":
            raise ParseError(f"unexpected trailing line {toks!r}", line=section)
        if len(toks) == 1:
            raise ParseError("matroid section needs a kind", line=section)
        kind, args = toks[1], toks[2:]

        def header_numbers(usage=""):
            if len(args) != len(usage.split()):
                form = f"matroid {kind} {usage}".rstrip()
                raise ParseError(f"expected '{form}'", line=section)
            return numbers(section, args, "matroid section")

        matroid = {"kind": kind}
        if kind == "uniform":
            (matroid["k"],) = header_numbers("K")
        elif kind == "graphic":
            matroid["aux_vertices"], count = header_numbers("NV ME")
            _check_aux_count(count, n, section)
            matroid["aux_edges"] = [
                numbers(*take("auxiliary edge 'a b'", 2), "auxiliary edge")
                for _ in range(count)
            ]
        elif kind == "explicit":
            (count,) = header_numbers("COUNT")
            matroid["sets"] = [listed("independent-set line", 1)[1] for _ in range(count)]
        elif kind == "partition":
            header_numbers()
        else:
            raise ParseError(f"unknown matroid kind {kind!r}", line=section)
        if pos < len(rows):
            raise ParseError("unexpected trailing data", line=rows[pos][0])
    return _build({"n": n, "edges": edges, "parts": parts, "matroid": matroid})


def parse_instance_json(text: str):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc.msg}", line=exc.lineno, column=exc.colno)
    if not isinstance(obj, dict):
        raise ParseError("instance must be a JSON object")
    if obj.get("schema") != SCHEMA:
        raise ParseError(f"unsupported schema {obj.get('schema')!r}")
    return _build(obj)


def _check_aux_count(count, n, line=None):
    if count != n:
        raise ParseError(
            f"graphic matroid needs one auxiliary edge per vertex ({n})", line=line
        )


def _integer(value, field):
    """value when it is a JSON integer; a ParseError naming `field` for any
    other value, 3.0 and true included."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{field}: expected an integer, got {value!r}")
    return value


def _number(value, field):
    """value when it is a JSON number; a ParseError naming `field` for any
    other value, true and "0.5" included."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{field}: expected a number, got {value!r}")
    return value


def _build(fields):
    """The instance and matroid the mirror's fields describe.

    Every number but an edge weight must be an integer, and an edge weight
    a number.  Errors of the graph and the partition become ParseErrors;
    the cutkit errors of the matroid constructors keep their class.
    """
    try:
        n = _integer(fields["n"], "n")
        edges = [
            (_integer(u, "edges"), _integer(v, "edges"), _number(w, "edges"))
            for u, v, w in fields["edges"]
        ]
        graph = WeightedGraph(n, edges)
        parts = fields["parts"]
        inst = ConstrainedInstance(
            graph,
            [[_integer(v, "parts vertices") for v in p["vertices"]] for p in parts],
            [_integer(p["k"], "parts k") for p in parts],
        )
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(str(exc)) from exc
    m = fields.get("matroid")
    if m is None:
        return inst, None
    if not isinstance(m, dict):
        raise ParseError("matroid section must be a JSON object")
    n, kind = graph.n, m.get("kind")
    try:
        if kind == "uniform":
            return inst, UniformMatroid(n, _integer(m["k"], "matroid k"))
        if kind == "partition":
            return inst, PartitionMatroid(n, inst.parts, inst.budgets)
        if kind == "graphic":
            aux = [[_integer(a, "matroid aux_edges") for a in e] for e in m["aux_edges"]]
            _check_aux_count(len(aux), n)
            return inst, GraphicMatroid(_integer(m["aux_vertices"], "matroid aux_vertices"), aux)
        if kind == "explicit":
            sets = [[_integer(v, "matroid sets") for v in s] for s in m["sets"]]
            return inst, ExplicitMatroid(n, sets)
    except KeyError as exc:
        raise ParseError(f"{kind} matroid section lacks {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad {kind} matroid section: {exc}") from exc
    raise ParseError(f"unknown matroid kind {kind!r}")


def _fields(inst: ConstrainedInstance, matroid):
    """The JSON mirror's fields, less the schema, of an instance and matroid."""
    if matroid is None:
        mirror = None
    elif isinstance(matroid, UniformMatroid):
        mirror = {"kind": "uniform", "k": matroid.k}
    elif isinstance(matroid, PartitionMatroid):
        # the format reads `matroid partition` back as the instance's own parts
        if set(zip(matroid.parts, matroid.budgets)) != set(zip(inst.parts, inst.budgets)):
            raise InputError("a partition matroid is written only with its own parts and budgets")
        mirror = {"kind": "partition"}
    elif isinstance(matroid, GraphicMatroid):
        mirror = {
            "kind": "graphic",
            "aux_vertices": matroid.aux_vertices,
            "aux_edges": [list(e) for e in matroid.aux_edges],
        }
    elif isinstance(matroid, ExplicitMatroid):
        mirror = {"kind": "explicit", "sets": [sorted(s) for s in matroid.maximal]}
    else:
        raise ParseError(f"unsupported matroid kind {matroid.kind!r}")
    return {
        "n": inst.graph.n,
        "edges": [list(e) for e in inst.graph.edges],
        "parts": [
            {"k": k, "vertices": sorted(p)} for p, k in zip(inst.parts, inst.budgets)
        ],
        "matroid": mirror,
    }


def parse_instance(text: str):
    """Dispatch on the leading character: '{' means the JSON mirror."""
    if text.lstrip().startswith("{"):
        return parse_instance_json(text)
    return parse_instance_text(text)


def read_instance(path: str):
    return parse_instance(read_text(path))


def format_instance_text(inst: ConstrainedInstance, matroid=None) -> str:
    f = _fields(inst, matroid)
    rows = [[f["n"], len(f["edges"]), len(f["parts"])], *f["edges"]]
    rows += [[len(p["vertices"]), p["k"], *p["vertices"]] for p in f["parts"]]
    m = f["matroid"]
    if m is not None:
        kind = m["kind"]
        if kind == "uniform":
            rows.append(["matroid", kind, m["k"]])
        elif kind == "partition":
            rows.append(["matroid", kind])
        elif kind == "graphic":
            rows.append(["matroid", kind, m["aux_vertices"], len(m["aux_edges"])])
            rows += m["aux_edges"]
        else:
            rows.append(["matroid", kind, len(m["sets"])])
            rows += [[len(s), *s] for s in m["sets"]]
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


def format_instance_json(inst: ConstrainedInstance, matroid=None) -> str:
    obj = {"schema": SCHEMA, **_fields(inst, matroid)}
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
    return parse_3dm(read_text(path))
