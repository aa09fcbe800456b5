import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutkit.errors import InputError, ParseError
from cutkit.forge import gen_random
from cutkit.graph import ConstrainedInstance, WeightedGraph
from cutkit.io import (
    format_instance_json,
    format_instance_text,
    parse_3dm,
    parse_instance,
)
from cutkit.matroid import (
    ExplicitMatroid,
    GraphicMatroid,
    PartitionMatroid,
    UniformMatroid,
)


def roundtrip(inst, matroid=None):
    text = format_instance_text(inst, matroid)
    parsed, m = parse_instance(text)
    assert parsed.graph.n == inst.graph.n
    assert parsed.graph.edges == inst.graph.edges
    assert parsed.parts == inst.parts
    assert parsed.budgets == inst.budgets
    return m


def test_text_roundtrip_plain():
    inst = gen_random(7, 0.5, "uniform", 2, "uniform", seed=5)
    assert roundtrip(inst) is None


def test_text_roundtrip_uniform_matroid():
    inst = gen_random(6, 0.5, "unit", 1, "uniform", seed=6)
    m = roundtrip(inst, UniformMatroid(6, 2))
    assert m.kind == "uniform" and m.k == 2


def test_text_roundtrip_partition_matroid():
    inst = gen_random(6, 0.5, "unit", 2, "uniform", seed=7)
    m = roundtrip(inst, PartitionMatroid(6, inst.parts, inst.budgets))
    assert m.kind == "partition"
    assert m.parts == inst.parts and m.budgets == inst.budgets


def test_text_roundtrip_graphic_matroid():
    inst = gen_random(4, 0.9, "unit", 1, "uniform", seed=8)
    aux = [(0, 1), (1, 2), (2, 3), (0, 3)]
    m = roundtrip(inst, GraphicMatroid(4, aux))
    assert m.kind == "graphic" and m.aux_edges == tuple(aux)


def test_text_roundtrip_explicit_matroid():
    inst = gen_random(4, 0.9, "unit", 1, "uniform", seed=9)
    m = roundtrip(inst, ExplicitMatroid(4, [[0, 2], [0, 3], [1, 2], [1, 3]]))
    assert m.kind == "explicit"
    assert m.is_independent({0, 2}) and not m.is_independent({0, 1})


@pytest.mark.parametrize("fmt", [format_instance_text, format_instance_json])
def test_writers_refuse_a_partition_matroid_of_other_parts(fmt):
    # `matroid partition` reads back as the instance's own parts and budgets
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    inst = ConstrainedInstance(g, [[0, 1], [2, 3]], [1, 1])
    for parts, budgets in (([[0, 2], [1, 3]], [2, 0]), ([[0, 1], [2, 3]], [0, 2]), ([range(4)], [2])):
        with pytest.raises(InputError, match="own parts and budgets"):
            fmt(inst, PartitionMatroid(4, parts, budgets))
    # the instance's own parts, listed in another order, read back
    _, m = parse_instance(fmt(inst, PartitionMatroid(4, [[2, 3], [0, 1]], [1, 1])))
    assert m.kind == "partition" and (m.parts, m.budgets) == (inst.parts, inst.budgets)
    _, m = parse_instance(fmt(inst, UniformMatroid(4, 2)))
    assert m.kind == "uniform" and m.k == 2


def test_json_roundtrip():
    inst = gen_random(7, 0.5, "uniform", 2, "uniform", seed=10)
    text = format_instance_json(inst, UniformMatroid(7, 3))
    parsed, m = parse_instance(text)
    assert parsed.graph.edges == inst.graph.edges
    assert m.kind == "uniform" and m.k == 3


JSON_BASE = {
    "schema": "cutkit/1",
    "n": 3,
    "edges": [[0, 1, 1.0], [1, 2, 1.0]],
    "parts": [{"k": 1, "vertices": [0, 1, 2]}],
}


@pytest.mark.parametrize(
    "matroid",
    [
        {"kind": "uniform"},
        {"kind": "uniform", "k": "two"},
        {"kind": "graphic", "aux_edges": [[0, 1], [1, 2], [0, 2]]},
        {"kind": "graphic", "aux_vertices": 3, "aux_edges": [[0, 1], [1, 2]]},
        {"kind": "graphic", "aux_vertices": 3, "aux_edges": [[0, 1], [1], [0, 2]]},
        {"kind": "explicit"},
        {"kind": "explicit", "sets": [["a"]]},
        ["uniform", 2],
    ],
)
def test_json_bad_matroid_section_is_a_parse_error(matroid):
    with pytest.raises(ParseError):
        parse_instance(json.dumps(dict(JSON_BASE, matroid=matroid)))


# The fractional numbers of {"n": 3.9, "edges": [[0, 1.7, 1]], "parts":
# [{"k": 1.5, "vertices": [0, 1, 2.2]}], "matroid": {"kind": "uniform",
# "k": 2.9}} once parsed as n 3, edge (0, 1), budget 1, vertex 2 and rank 2.
# Each case puts one non-integer into one integer field of a good instance.
@pytest.mark.parametrize(
    "change, field",
    [
        ({"n": 3.9}, "n"),
        ({"n": 3.0}, "n"),
        ({"edges": [[0, 1.7, 1], [1, 2, 1.0]]}, "edges"),
        ({"parts": [{"k": 1.5, "vertices": [0, 1, 2]}]}, "parts k"),
        ({"parts": [{"k": True, "vertices": [0, 1, 2]}]}, "parts k"),
        ({"parts": [{"k": 1, "vertices": [0, 1, 2.2]}]}, "parts vertices"),
        ({"matroid": {"kind": "uniform", "k": 2.9}}, "matroid k"),
        ({"matroid": {"kind": "uniform", "k": "2"}}, "matroid k"),
        (
            {"matroid": {"kind": "graphic", "aux_vertices": 3.5, "aux_edges": [[0, 1], [1, 2], [0, 2]]}},
            "matroid aux_vertices",
        ),
        (
            {"matroid": {"kind": "graphic", "aux_vertices": 3, "aux_edges": [[0, 1], [1, 2.0], [0, 2]]}},
            "matroid aux_edges",
        ),
        ({"matroid": {"kind": "explicit", "sets": [[0, 1.5]]}}, "matroid sets"),
    ],
)
def test_json_number_in_an_integer_field_must_be_an_integer(change, field):
    with pytest.raises(ParseError, match=f"^{field}: expected an integer, got "):
        parse_instance(json.dumps(dict(JSON_BASE, **change)))


# true once parsed as weight 1.0 and "0.5" as 0.5
@pytest.mark.parametrize("weight", [True, "0.5"])
def test_json_edge_weight_must_be_a_number(weight):
    with pytest.raises(ParseError, match="^edges: expected a number, got "):
        parse_instance(json.dumps(dict(JSON_BASE, edges=[[0, 1, weight], [1, 2, 1.0]])))


@pytest.mark.parametrize("weight", ["1e309", "inf", "-inf", "nan"])
def test_a_non_finite_weight_is_a_parse_error_in_the_text_format(weight):
    with pytest.raises(ParseError, match="not finite"):
        parse_instance(f"3 2 1\n0 1 {weight}\n1 2 1.0\n3 1 0 1 2\n")


@pytest.mark.parametrize("weight", ["1e309", "Infinity", "-Infinity", "NaN"])
def test_a_non_finite_weight_is_a_parse_error_in_json(weight):
    text = json.dumps(JSON_BASE).replace("[0, 1, 1.0]", f"[0, 1, {weight}]")
    with pytest.raises(ParseError, match="not finite"):
        parse_instance(text)


def test_bad_top_level_json_is_a_parse_error():
    from cutkit.io import parse_instance_json

    with pytest.raises(ParseError):
        parse_instance_json("[1, 2]")


def test_text_bad_matroid_number_is_a_parse_error():
    # a bad number names its own line, in the section's following lines too;
    # a graphic edge count other than n names the header before any edge line
    base = "3 2 1\n0 1 1\n1 2 1\n3 1 0 1 2\n"
    for section, line in (
        ("matroid uniform two\n", 5),
        ("matroid graphic 3 3\n0 1\n1 x\n2 0\n", 7),
        ("matroid explicit 2\n2 0 1\n1 x\n", 7),
        ("matroid graphic 3 2\n0 1\n1 2\n", 5),
        ("matroid graphic 3 4\n0 1\n1 2\n2 0\n", 5),
        ("matroid partition whatever 7\n", 5),
    ):
        with pytest.raises(ParseError) as exc_info:
            parse_instance(base + section)
        assert exc_info.value.line == line
    with pytest.raises(ParseError, match="^line 5: expected 'matroid partition'$"):
        parse_instance(base + "matroid partition whatever 7\n")


@st.composite
def instances_with_matroids(draw):
    n = draw(st.integers(2, 8))
    c = draw(st.integers(1, min(3, n // 2)))
    inst = gen_random(n, 0.6, draw(st.sampled_from(["unit", "uniform"])), c,
                      "uniform", seed=draw(st.integers(0, 10_000)))
    kind = draw(st.sampled_from(["uniform", "partition", "graphic", "explicit"]))
    if kind == "uniform":
        matroid = UniformMatroid(n, draw(st.integers(0, n)))
    elif kind == "partition":
        matroid = PartitionMatroid(n, inst.parts, inst.budgets)
    elif kind == "graphic":
        nv = draw(st.integers(1, 6))
        pair = st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1))
        matroid = GraphicMatroid(nv, draw(st.lists(pair, min_size=n, max_size=n)))
    else:
        subset = st.frozensets(st.integers(0, n - 1))
        matroid = ExplicitMatroid(n, draw(st.lists(subset, min_size=1, max_size=5)))
    return inst, matroid


def matroid_fields(m):
    return (m.kind, getattr(m, "k", None), getattr(m, "parts", None),
            getattr(m, "budgets", None), getattr(m, "aux_vertices", None),
            getattr(m, "aux_edges", None), getattr(m, "maximal", None))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=instances_with_matroids(), fmt=st.sampled_from([format_instance_text, format_instance_json]))
def test_parse_format_roundtrip_every_matroid_kind(case, fmt):
    inst, matroid = case
    text = fmt(inst, matroid)
    parsed, m = parse_instance(text)
    assert parsed.graph.n == inst.graph.n
    assert parsed.graph.edges == inst.graph.edges
    assert parsed.parts == inst.parts and parsed.budgets == inst.budgets
    assert matroid_fields(m) == matroid_fields(matroid)
    assert fmt(parsed, m) == text


def test_json_schema_checked():
    with pytest.raises(ParseError):
        parse_instance('{"schema": "other/9", "n": 1, "edges": [], "parts": []}')


def test_parse_error_carries_line():
    bad = "2 1 1\n0 1 notaweight\n2 1 0 1\n"
    with pytest.raises(ParseError) as exc_info:
        parse_instance(bad)
    assert exc_info.value.line == 2


def test_parse_part_size_mismatch():
    bad = "2 1 1\n0 1 1.0\n3 1 0 1\n"
    with pytest.raises(ParseError):
        parse_instance(bad)


def test_parse_trailing_garbage():
    bad = "2 1 1\n0 1 1.0\n2 1 0 1\nwhat is this\n"
    with pytest.raises(ParseError):
        parse_instance(bad)


def test_parse_comments_and_blanks():
    text = "# instance\n2 1 1\n\n0 1 1.0  # the only edge\n2 1 0 1\n"
    inst, m = parse_instance(text)
    assert inst.graph.edges == ((0, 1, 1.0),)


def test_parse_3dm():
    tdm = parse_3dm("0 0 0\n1 1 1\n# done\n")
    assert tdm.size == 2 and len(tdm.triples) == 2
    with pytest.raises(ParseError):
        parse_3dm("0 0\n")
    with pytest.raises(ParseError):
        parse_3dm("")


CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*") if p.suffix in (".txt", ".json")))
def test_corpus_file_reformats_to_its_own_bytes(name):
    stored = (CORPUS / name).read_text(encoding="utf-8")
    fmt = format_instance_json if name.endswith(".json") else format_instance_text
    assert fmt(*parse_instance(stored)) == stored


# One small instance per matroid kind, with an empty part, a repeated
# auxiliary edge and an explicit matroid whose only set is empty; the
# strings pin both formats byte for byte.
def _pinned(kind):
    if kind == "uniform":
        inst = ConstrainedInstance(WeightedGraph(3, [(1, 0, 0.1), (1, 2, 1 / 3)]), [[2, 0, 1], []], [1, 0])
        return inst, UniformMatroid(3, 2)
    if kind == "partition":
        inst = ConstrainedInstance(WeightedGraph(3, [(0, 2, 1.0)]), [[1], [2, 0]], [0, 1])
        return inst, PartitionMatroid(3, inst.parts, inst.budgets)
    if kind == "graphic":
        inst = ConstrainedInstance(WeightedGraph(2, [(0, 1, 2.5)]), [[0, 1]], [1])
        return inst, GraphicMatroid(2, [(0, 1), (0, 1)])
    inst = ConstrainedInstance(WeightedGraph(2, []), [[0, 1]], [1])
    return inst, ExplicitMatroid(2, [[]])


PINNED = {
    "uniform": (
        """\
3 2 2
0 1 0.1
1 2 0.3333333333333333
3 1 0 1 2
0 0
matroid uniform 2
""",
        """\
{
  "edges": [
    [
      0,
      1,
      0.1
    ],
    [
      1,
      2,
      0.3333333333333333
    ]
  ],
  "matroid": {
    "k": 2,
    "kind": "uniform"
  },
  "n": 3,
  "parts": [
    {
      "k": 1,
      "vertices": [
        0,
        1,
        2
      ]
    },
    {
      "k": 0,
      "vertices": []
    }
  ],
  "schema": "cutkit/1"
}
""",
    ),
    "partition": (
        """\
3 1 2
0 2 1.0
1 0 1
2 1 0 2
matroid partition
""",
        """\
{
  "edges": [
    [
      0,
      2,
      1.0
    ]
  ],
  "matroid": {
    "kind": "partition"
  },
  "n": 3,
  "parts": [
    {
      "k": 0,
      "vertices": [
        1
      ]
    },
    {
      "k": 1,
      "vertices": [
        0,
        2
      ]
    }
  ],
  "schema": "cutkit/1"
}
""",
    ),
    "graphic": (
        """\
2 1 1
0 1 2.5
2 1 0 1
matroid graphic 2 2
0 1
0 1
""",
        """\
{
  "edges": [
    [
      0,
      1,
      2.5
    ]
  ],
  "matroid": {
    "aux_edges": [
      [
        0,
        1
      ],
      [
        0,
        1
      ]
    ],
    "aux_vertices": 2,
    "kind": "graphic"
  },
  "n": 2,
  "parts": [
    {
      "k": 1,
      "vertices": [
        0,
        1
      ]
    }
  ],
  "schema": "cutkit/1"
}
""",
    ),
    "explicit": (
        """\
2 0 1
2 1 0 1
matroid explicit 1
0
""",
        """\
{
  "edges": [],
  "matroid": {
    "kind": "explicit",
    "sets": [
      []
    ]
  },
  "n": 2,
  "parts": [
    {
      "k": 1,
      "vertices": [
        0,
        1
      ]
    }
  ],
  "schema": "cutkit/1"
}
""",
    ),
}


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_pinned_bytes_of_each_matroid_kind(kind):
    inst, matroid = _pinned(kind)
    text, mirror = PINNED[kind]
    assert format_instance_text(inst, matroid) == text
    assert format_instance_json(inst, matroid) == mirror
    for stored, fmt in ((text, format_instance_text), (mirror, format_instance_json)):
        parsed, m = parse_instance(stored)
        assert parsed == inst
        assert matroid_fields(m) == matroid_fields(matroid)
        assert fmt(parsed, m) == stored
