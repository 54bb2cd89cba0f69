import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltquiver.quiver_core import (
    Quiver,
    QuiverSyntaxError,
    classify,
    named_diagram,
    orientations,
    parse_quiver,
)

A2_TEXT = """\
# the smallest interesting quiver
vertices 1 2
arrow a 1 2
"""


def test_parse_basic():
    q = parse_quiver(A2_TEXT)
    assert q.vertices == (1, 2)
    assert [(a.aid, a.source, a.target) for a in q.arrows] == [("a", 1, 2)]


def test_parse_kronecker_and_json():
    q = parse_quiver("vertices 1 2\narrow a 1 2\narrow b 1 2\n")
    assert len(q.arrows) == 2
    j = parse_quiver('{"vertices": [1, 2], "arrows": [["a", 1, 2], ["b", 1, 2]]}')
    assert j == q


def test_parse_errors():
    with pytest.raises(QuiverSyntaxError):
        parse_quiver("vertices 1 2\narrow a 1 2\narrow b 2 1\n")  # cycle
    with pytest.raises(QuiverSyntaxError):
        parse_quiver("arrow a 1 2\n")  # no vertices line
    with pytest.raises(QuiverSyntaxError):
        parse_quiver("vertices 1 1\n")
    with pytest.raises(QuiverSyntaxError):
        parse_quiver("vertices 1 2\narrow a 1 3\n")
    with pytest.raises(QuiverSyntaxError):
        parse_quiver("vertices 1 2\nloop a 1 2\n")
    with pytest.raises(QuiverSyntaxError):
        parse_quiver("vertices 1 2\narrow a 1 1\n")  # loop = 1-cycle


BAD_JSON_QUIVERS = {
    "float-vertex": '{"vertices": [1.5, 2], "arrows": []}',
    "string-vertices": '{"vertices": "12", "arrows": []}',
    "bool-vertex": '{"vertices": [true, 2], "arrows": []}',
    "float-endpoint": '{"vertices": [1, 2], "arrows": [["a", 1.9, 2]]}',
    "string-endpoint": '{"vertices": [1, 2], "arrows": [["a", "1", 2]]}',
    "null-id": '{"vertices": [1, 2], "arrows": [[null, 1, 2]]}',
    "four-elements": '{"vertices": [1, 2], "arrows": [["a", 1, 2, 2]]}',
    "no-vertex": '{"vertices": [], "arrows": []}',
    "arrows-object": '{"vertices": [1, 2], "arrows": {"a": 1}}',
    "no-arrows-key": '{"vertices": [1, 2]}',
}


@pytest.mark.parametrize("text", BAD_JSON_QUIVERS.values(), ids=BAD_JSON_QUIVERS)
def test_json_quiver_converts_no_value(text):
    # the JSON form is as strict as the line format: each value has its
    # JSON type, and nothing is coerced into a vertex or an arrow
    with pytest.raises(QuiverSyntaxError, match="^bad JSON quiver: "):
        parse_quiver(text)


# arrow ids and the line format's tokens: no whitespace, no comment sign
ARROW_IDS = st.text(st.characters(blacklist_categories=("Z", "C"), blacklist_characters="#"),
                    min_size=1, max_size=4)


@st.composite
def acyclic_quivers(draw):
    """(vertices, arrows) of a random acyclic quiver: distinct vertex
    labels in a random declared order, arrows running forward along a
    random order of the vertices, parallel arrows allowed."""
    vertices = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=6, unique=True))
    order = draw(st.permutations(vertices))
    forward = [(i, j) for j in range(len(order)) for i in range(j)]
    ends = draw(st.lists(st.sampled_from(forward), max_size=7)) if forward else []
    ids = draw(st.lists(ARROW_IDS, min_size=len(ends), max_size=len(ends), unique=True))
    return vertices, [[aid, order[i], order[j]] for aid, (i, j) in zip(ids, ends)]


def _line_format(vertices, arrows):
    lines = ["# drawn", "vertices " + " ".join(map(str, vertices)), ""]
    return "\n".join(lines + [f"arrow {a} {s} {t}  # id, source, target" for a, s, t in arrows])


@settings(max_examples=200, deadline=None)
@given(acyclic_quivers())
def test_line_and_json_formats_parse_to_one_quiver(case):
    vertices, arrows = case
    q = parse_quiver(_line_format(vertices, arrows))
    assert parse_quiver(json.dumps({"vertices": vertices, "arrows": arrows})) == q
    assert q == Quiver(vertices, arrows)
    assert [list(a) for a in q.arrows] == arrows


def _values_except(*kinds):
    """JSON values of every type but ``kinds``."""
    values = {"int": st.integers(-3, 3), "float": st.floats(allow_nan=False),
              "bool": st.booleans(), "str": st.text(max_size=2), "null": st.none(),
              "list": st.lists(st.integers(-3, 3), max_size=4),
              "object": st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)}
    return st.one_of([v for k, v in values.items() if k not in kinds])


@st.composite
def mistyped_json_quivers(draw):
    """The JSON form of a random acyclic quiver with one value replaced by
    one of another JSON type: the vertex list, a vertex, the arrow list,
    an arrow, or an arrow's id or endpoint."""
    vertices, arrows = draw(acyclic_quivers())
    obj = {"vertices": vertices, "arrows": arrows}
    spots = [(obj, "vertices", "list"), (obj, "arrows", "list")]
    spots += [(vertices, k, "int") for k in range(len(vertices))]
    spots += [(arrows, k, "list") for k in range(len(arrows))]
    spots += [(a, k, "str" if k == 0 else "int") for a in arrows for k in range(3)]
    where, key, kind = draw(st.sampled_from(spots))
    where[key] = draw(_values_except(kind))
    return json.dumps(obj)


@settings(max_examples=300, deadline=None)
@given(mistyped_json_quivers())
def test_a_mistyped_json_quiver_is_a_syntax_error(text):
    with pytest.raises(QuiverSyntaxError, match="^bad JSON quiver: "):
        parse_quiver(text)


def test_sinks_sources_topo():
    q = parse_quiver("vertices 1 2 3\narrow a 1 2\narrow b 2 3\n")
    assert [v for v in q.vertices if q.is_sink(v)] == [3]
    assert [v for v in q.vertices if q.is_source(v)] == [1]
    assert q.topological_order() == (1, 2, 3)


def test_paths_linear_a3():
    q = parse_quiver("vertices 1 2 3\narrow a 1 2\narrow b 2 3\n")
    p = q.all_paths()
    assert p[(1, 1)] == [()]
    assert p[(1, 2)] == [("a",)]
    assert p[(1, 3)] == [("a", "b")]
    assert q.paths_between(3, 1) == []


def test_paths_commutative_square_counts():
    #   0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3: two paths 0 ~> 3
    q = Quiver([0, 1, 2, 3], [("a", 0, 1), ("b", 0, 2), ("c", 1, 3), ("d", 2, 3)])
    assert q.paths_between(0, 3) == [("a", "c"), ("b", "d")]


def test_euler_form_a2():
    q = parse_quiver(A2_TEXT)
    assert q.euler_form((1, 1), (0, 1)) == 0
    assert q.euler_form((1, 0), (0, 1)) == -1
    assert q.euler_form((1, 0), (1, 0)) == 1
    assert q.euler_form((2, 3), (0, 0)) == 0
    # bilinearity spot check
    d1, d2, e = (1, 2), (3, 1), (2, 5)
    both = q.euler_form((d1[0] + d2[0], d1[1] + d2[1]), e)
    assert both == q.euler_form(d1, e) + q.euler_form(d2, e)
    with pytest.raises(ValueError):
        q.euler_form((1, 2, 3), (1, 1))


CATALOGUE = ["A1", "A4", "A8", "D4", "D6", "D8", "E6", "E7", "E8", "K"]


@st.composite
def quiver_and_two_vectors(draw):
    name = draw(st.sampled_from(CATALOGUE))
    q = named_diagram(name) if name == "K" else draw(st.sampled_from(orientations(name)))
    vector = st.lists(st.integers(-5, 9), min_size=q.n, max_size=q.n)
    return q, draw(vector), draw(vector)


@settings(max_examples=200, deadline=None)
@given(quiver_and_two_vectors())
def test_euler_row_is_the_form_against_the_first_vector(case):
    # the duplicated Ext^1 reads <d, e> as the dot product of d's Euler row with e
    q, d, e = case
    row = q.euler_row(d)
    assert sum(r * x for r, x in zip(row, e)) == q.euler_form(d, e)


def test_delete_vertex():
    q = parse_quiver("vertices 1 2 3\narrow a 1 2\narrow b 2 3\n")
    mid = q.delete_vertex(2)
    assert mid.vertices == (1, 3) and mid.arrows == ()
    assert not mid.is_connected()
    assert len(mid.component_vertex_sets()) == 2
    end = q.delete_vertex(1)
    assert classify(end).name == "A2"
    kron = named_diagram("K")
    assert kron.delete_vertex(1).vertices == (0,)
    with pytest.raises(ValueError):
        q.delete_vertex(42)


def test_reverse_at():
    q = parse_quiver(A2_TEXT)
    r = q.reverse_at(2)
    assert [(a.source, a.target) for a in r.arrows] == [(2, 1)]
    # reversing at a middle vertex flips both incident arrows
    a3 = parse_quiver("vertices 1 2 3\narrow a 1 2\narrow b 2 3\n")
    r3 = a3.reverse_at(2)
    assert {(a.source, a.target) for a in r3.arrows} == {(2, 1), (3, 2)}


# ----------------------------------------------------------- classification


def test_classify_catalogue():
    cases = {
        "A1": ("dynkin", "A1"),
        "A3": ("dynkin", "A3"),
        "A5": ("dynkin", "A5"),
        "D4": ("dynkin", "D4"),
        "D5": ("dynkin", "D5"),
        "E6": ("dynkin", "E6"),
        "E7": ("dynkin", "E7"),
        "E8": ("dynkin", "E8"),
    }
    for name, (kind, cname) in cases.items():
        dc = classify(named_diagram(name))
        assert (dc.kind, dc.name) == (kind, cname), name


def test_classify_euclidean_and_wild():
    assert classify(named_diagram("K")).name == "~A1"
    cyc = Quiver([0, 1, 2], [("a", 0, 1), ("b", 1, 2), ("c", 0, 2)])
    assert classify(cyc).name == "~A2"
    star4 = Quiver([0, 1, 2, 3, 4], [(f"e{i}", i, 4) for i in range(4)])
    assert classify(star4).name == "~D4"
    # two branch vertices, two leaves each
    d5t = Quiver(
        [0, 1, 2, 3, 4, 5],
        [("a", 0, 2), ("b", 1, 2), ("c", 2, 3), ("d", 3, 4), ("e", 3, 5)],
    )
    assert classify(d5t).name == "~D5"
    e6t = Quiver(
        list(range(7)),
        [("a", 0, 1), ("b", 1, 2), ("c", 2, 3), ("d", 3, 4), ("e", 2, 5), ("f", 5, 6)],
    )
    assert classify(e6t).name == "~E6"
    triple = Quiver([0, 1], [("a", 0, 1), ("b", 0, 1), ("c", 0, 1)])
    assert classify(triple).kind == "wild"
    # star with five arms
    star5 = Quiver(list(range(6)), [(f"e{i}", i, 5) for i in range(5)])
    assert classify(star5).kind == "wild"
    # cycle with a pendant vertex
    tadpole = Quiver([0, 1, 2, 3], [("a", 0, 1), ("b", 1, 2), ("c", 0, 2), ("d", 2, 3)])
    assert classify(tadpole).kind == "wild"
    with pytest.raises(ValueError):
        classify(Quiver([0, 1], []))


def test_tits_form_signs():
    # positive definite on Dynkin, has a radical vector on Euclidean
    a3 = named_diagram("A3")
    for d in [(1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 1, 1), (1, 2, 1)]:
        assert a3.tits_form(d) > 0
    kron = named_diagram("K")
    assert kron.tits_form((1, 1)) == 0
    assert kron.tits_form((2, 1)) > 0
    assert kron.tits_form((1, 0)) > 0


def test_deleted_euclidean_goes_dynkin():
    for name in ["K"]:
        q = named_diagram(name)
        for v in q.vertices:
            for comp in q.delete_vertex(v).components():
                assert classify(comp).kind == "dynkin"
    star4 = Quiver([0, 1, 2, 3, 4], [(f"e{i}", i, 4) for i in range(4)])
    for v in star4.vertices:
        for comp in star4.delete_vertex(v).components():
            assert classify(comp).kind == "dynkin"


# ----------------------------------------------------------- orientations


def test_orientations_counts_and_distinct():
    for name, count in [("A2", 2), ("A3", 4), ("D4", 8)]:
        qs = orientations(name)
        assert len(qs) == count
        assert len({q for q in qs}) == count
        base = qs[0].edge_multiset()
        for q in qs:
            assert q.edge_multiset() == base  # same underlying graph


def test_orientations_accepts_quiver_and_class():
    q = named_diagram("A3")
    assert len(orientations(q)) == 4
    assert len(orientations(classify(q))) == 4
    with pytest.raises(ValueError):
        orientations(named_diagram("K"))
    with pytest.raises(ValueError):
        orientations("Z9")


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_reversal_is_shared_by_equal_quivers_and_undone_by_a_second(name):
    # quivers are immutable and hash by value, so equal quivers share one
    # reversed quiver per vertex
    for q in orientations(name):
        twin = Quiver(q.vertices, q.arrows)
        for v in q.vertices:
            flipped = q.reverse_at(v)
            assert twin is not q and twin.reverse_at(v) is flipped
            assert flipped != q and flipped.reverse_at(v) == q
