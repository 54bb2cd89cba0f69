"""Tilting modules over a hereditary quiver algebra and their exchange graph.

Over a hereditary algebra a basic module with n pairwise Ext-orthogonal
rigid indecomposable summands is tilting (count criterion), so
enumeration is clique search over the indecomposable pool under the
symmetric compatibility relation Ext1(X,Y) = Ext1(Y,X) = 0.  The
exchange graph has the tilting modules as vertices and one arc per
almost complete module with two complements, oriented along the short
exact sequence 0 -> X -> E -> Y -> 0 (from the module containing X to
the one containing Y).  The engine orients every arc by the Ext
criterion and hands it to a certifier for the sequence: the path
algebra builds the sequence for every arc, the duplicated algebra
certifies each exchange pair (X, Y) once and checks every arc's almost
complete part against it.

This module hosts the package's one exchange-graph engine (records,
clique and complement search, the arc loop ``exchange_arcs``);
:mod:`tiltquiver.dup` runs it with its own pool, Ext and certifier.

The same machinery runs on the double-arrow (tame) quiver restricted to
a preprojective/preinjective window; everything touching the window rim
is flagged window-limited instead of being trusted.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, cached_property
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

from .homsolve import SlotMap, radical_coordinates
from .quiver_core import Quiver, named_diagram, orientations
from .rep_a import (
    IndecId,
    Rep,
    exchange_sequence,
    ext1_dim,
    hom_basis,
    indecomposables,
    kronecker_window,
)

__all__ = [
    "Tilting",
    "Arc",
    "TiltingGraph",
    "Saturation",
    "compatibility_table",
    "cliques",
    "complement_indices",
    "exchange_arcs",
    "make_tilting",
    "enumerate_tilting",
    "AlmostComplete",
    "almost_complete_survey",
    "tilting_quiver",
    "kronecker_tilting_quiver",
    "zero_support",
    "nonsaturated_tame",
    "orientation_invariance",
]


class Pool:
    """Indecomposable pool with its Ext table, a Hom cache and compatibility.

    Precondition: the members are pairwise non-isomorphic bricks from
    directed components (the indecomposables of a Dynkin quiver, or the
    double-arrow preprojectives and preinjectives).  Between two such
    modules Hom or Ext^1 vanishes, so dim Ext^1(X, Y) is the negative part
    of the Euler form <dim X, dim Y> (Ringel, LNM 1099) and the whole table
    is read off it.  Each member's rigidity is still checked by the Hom
    solver.
    """

    def __init__(self, quiver: Quiver, items: Sequence[tuple[IndecId, Rep]]):
        self.quiver = quiver
        self.ids = [iid for iid, _ in items]
        self.reps = [rep for _, rep in items]
        self.dims = [rep.dim_vector() for rep in self.reps]
        self._ext = [[max(0, -quiver.euler_form(di, dj)) for dj in self.dims]
                     for di in self.dims]
        self._hom: dict[tuple[int, int], list[SlotMap]] = {}
        for iid, rep in zip(self.ids, self.reps):
            if ext1_dim(rep, rep):
                raise RuntimeError(f"pool member {iid} is not rigid")

    def ext(self, i: int, j: int) -> int:
        return self._ext[i][j]

    def hom(self, i: int, j: int) -> list[SlotMap]:
        got = self._hom.get((i, j))
        if got is None:
            got = hom_basis(self.reps[i], self.reps[j])
            self._hom[(i, j)] = got
        return got

    def compatible(self, i: int, j: int) -> bool:
        return self.ext(i, j) == 0 and self.ext(j, i) == 0

    @cached_property
    def table(self) -> list[frozenset[int]]:
        return compatibility_table(len(self), self.compatible)

    def __len__(self) -> int:
        return len(self.ids)


@cache
def _dynkin_pool(q: Quiver) -> Pool:
    return Pool(q, indecomposables(q))


@cache
def _kron_pool(w: int) -> Pool:
    return Pool(named_diagram("K"), kronecker_window(w))


class Tilting(NamedTuple):
    """A basic tilting module, as sorted pool indices plus bookkeeping
    (bar summands of the duplicated algebra stay implicit)."""

    indices: tuple[int, ...]
    ids: tuple[Hashable, ...]
    dim_sum: tuple[int, ...]

    def label(self) -> str:
        return "+".join(str(i) for i in self.ids)


class Arc(NamedTuple):
    """Exchange of x for y; ``e_dims`` is the middle term of 0 -> x -> E -> y -> 0."""

    src: int
    dst: int
    x: Hashable
    y: Hashable
    e_dims: tuple[int, ...]


class Saturation(NamedTuple):
    s: int
    e: int
    sigma: int
    saturated: bool
    dim_criterion: bool


class TiltingGraph:
    """Exchange graph; ``pool`` is a ``Pool`` or a ``dup.DupContext``;
    ``boundary`` holds the window-limited vertices and ``defects`` the
    disallowed complement counts."""

    def __init__(self, quiver: Quiver, pool: object, tiltings: list[Tilting],
                 arcs: list[Arc], defects: Sequence[str] = ()) -> None:
        self.quiver = quiver
        self.pool = pool
        self.tiltings = tiltings
        self.arcs = arcs
        self.boundary: set[int] = set()
        self.defects = list(defects)
        self._position = {t.indices: i for i, t in enumerate(self.tiltings)}
        self._out = Counter(a.src for a in self.arcs)
        self._in = Counter(a.dst for a in self.arcs)

    @property
    def n(self) -> int:
        return self.quiver.n

    def index_of(self, t: Tilting | Iterable[int]) -> int:
        key = t.indices if isinstance(t, Tilting) else tuple(sorted(t))
        if key not in self._position:
            raise ValueError(f"tilting module {key} not a vertex of this graph")
        return self._position[key]

    def out_degree(self, i: int) -> int:
        return self._out[i]

    def in_degree(self, i: int) -> int:
        return self._in[i]

    def saturation(self, t: Tilting | int) -> Saturation:
        i = t if isinstance(t, int) else self.index_of(t)
        if not 0 <= i < len(self.tiltings):
            raise ValueError(f"no vertex {i}")
        s, e = self.out_degree(i), self.in_degree(i)
        dims = self.tiltings[i].dim_sum
        return Saturation(s, e, s + e, s + e == self.n, all(d >= 2 for d in dims))

    def weak_components(self) -> list[list[int]]:
        parent = list(range(len(self.tiltings)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a in self.arcs:
            ra, rb = find(a.src), find(a.dst)
            if ra != rb:
                parent[ra] = rb
        groups: dict[int, list[int]] = {}
        for i in range(len(self.tiltings)):
            groups.setdefault(find(i), []).append(i)
        return sorted(groups.values())

    def is_connected(self) -> bool:
        return len(self.weak_components()) <= 1


# ---------------------------------------------------------------------------
# the exchange-graph engine (shared with dup)


def compatibility_table(size: int, compatible: Callable[[int, int], bool]
                        ) -> list[frozenset[int]]:
    """Row i: every other pool index j with compatible(i, j)."""
    return [frozenset(j for j in range(size) if j != i and compatible(i, j))
            for i in range(size)]


def cliques(table: Sequence[frozenset[int]], size: int) -> list[tuple[int, ...]]:
    """All ascending pairwise-compatible index tuples of the given size,
    in lexicographic order."""
    out: list[tuple[int, ...]] = []

    def rec(chosen: tuple[int, ...], cands: list[int]) -> None:
        if len(chosen) == size:
            out.append(chosen)
            return
        need = size - len(chosen)
        for k, i in enumerate(cands):
            if len(cands) - k < need:
                break
            row = table[i]
            rec(chosen + (i,), [j for j in cands[k + 1:] if j in row])

    rec((), list(range(len(table))))
    return out


def complement_indices(table: Sequence[frozenset[int]], rest: Sequence[int]) -> list[int]:
    """Every pool index outside ``rest`` compatible with all of it."""
    return sorted(set(range(len(table))).intersection(*(table[r] for r in rest)))


def exchange_arcs(
    ids: Sequence[Hashable],
    table: Sequence[frozenset[int]],
    ext: Callable[[int, int], int],
    certify: Callable[[int, int, tuple[int, ...]], tuple[int, ...]],
    vertices: Sequence[tuple[int, ...]],
    allowed: frozenset[int],
) -> tuple[list[Arc], list[tuple[tuple[int, ...], int]]]:
    """Certified arcs between the given vertices, sorted by (src, dst).

    Visits every almost complete part of a vertex once.  A part with two
    complements x, y gives one arc, oriented by Ext^1(y, x) != 0;
    ``certify(x, y, rest)`` raises ``RuntimeError`` unless the exchange
    sequence 0 -> x -> E -> y -> 0 holds, and returns the dimensions of
    E.  Complement counts not in ``allowed`` come back as defects.
    """
    position = {c: i for i, c in enumerate(vertices)}
    arcs: list[Arc] = []
    defects: list[tuple[tuple[int, ...], int]] = []
    parts = dict.fromkeys(tuple(j for j in t if j != drop) for t in vertices for drop in t)
    for rest in parts:
        comps = complement_indices(table, rest)
        if len(comps) not in allowed:
            defects.append((rest, len(comps)))
        if len(comps) != 2:
            continue
        c1, c2 = comps
        e12, e21 = ext(c1, c2), ext(c2, c1)
        if (e12 == 0) == (e21 == 0):
            raise RuntimeError(f"cannot orient the exchange of {ids[c1]} / {ids[c2]}")
        x, y = (c2, c1) if e12 else (c1, c2)
        arcs.append(Arc(position[tuple(sorted(rest + (x,)))],
                        position[tuple(sorted(rest + (y,)))],
                        ids[x], ids[y], certify(x, y, rest)))
    arcs.sort(key=lambda a: (a.src, a.dst))
    return arcs, defects


def make_tilting(idx: tuple[int, ...], ids: Sequence[Hashable],
                 dims: Sequence[tuple[int, ...]]) -> Tilting:
    """The tilting record of pool indices ``idx``; ``dims[i]`` is the
    dimension vector (``dims_key``) of pool member i."""
    return Tilting(idx, tuple(ids[i] for i in idx),
                   tuple(sum(col) for col in zip(*(dims[i] for i in idx))))


# ---------------------------------------------------------------------------
# enumeration


def enumerate_tilting(q: Quiver) -> list[Tilting]:
    """All basic tilting modules of a quiver with Dynkin components.

    Uses the count criterion: n pairwise compatible rigid
    indecomposables form a tilting module over a hereditary algebra.
    The empty quiver has exactly one (the zero module), which keeps
    deleted-vertex counting uniform.
    """
    if q.n == 0:
        return [Tilting((), (), ())]
    pool = _dynkin_pool(q)
    return [make_tilting(c, pool.ids, pool.dims) for c in cliques(pool.table, q.n)]


class AlmostComplete(NamedTuple):
    """An almost complete tilting module with its completion data."""

    summands: tuple[IndecId, ...]
    dim_sum: tuple[int, ...]
    sincere: bool
    zero_support: tuple[int, ...]
    complements: tuple[IndecId, ...]

    def label(self) -> str:
        return "+".join(str(i) for i in self.summands)


def almost_complete_survey(q: Quiver) -> list[AlmostComplete]:
    """Every almost complete tilting module with all its complements."""
    pool = _dynkin_pool(q)
    out = []
    for rest in cliques(pool.table, q.n - 1):
        ds = tuple(sum(pool.dims[i][k] for i in rest) for k in range(q.n))
        zeros = zero_support(q, ds)
        comps = complement_indices(pool.table, rest)
        out.append(AlmostComplete(
            tuple(pool.ids[i] for i in rest),
            ds,
            not zeros,
            tuple(sorted(zeros)),
            tuple(pool.ids[c] for c in comps),
        ))
    return out


# ---------------------------------------------------------------------------
# graph construction


def _graph(pool: Pool, size: int) -> TiltingGraph:
    """Exchange graph on all tilting modules of the pool, each arc certified
    by an exchange sequence built from the pool's cached Hom bases."""

    def certify(x: int, y: int, rest: tuple[int, ...]) -> tuple[int, ...]:
        x_rep = pool.reps[x]
        hom_x = [pool.hom(x, r) for r in rest]
        got = exchange_sequence(x_rep, [pool.reps[r] for r in rest], hom_x=hom_x,
                                radical=lambda a, b: radical_coordinates(
                                    x_rep, hom_x[a], pool.hom(rest[a], rest[b]), hom_x[b]))
        if got is None:
            raise RuntimeError(f"certified arc at {pool.ids[x]} lost its exchange sequence")
        e_rep, y_rep = got
        if y_rep.dim_vector() != pool.reps[y].dim_vector():
            raise RuntimeError(f"exchange cokernel at {pool.ids[x]} is not the expected "
                               f"complement {pool.ids[y]}")
        return e_rep.dim_vector()

    vertices = cliques(pool.table, size)
    arcs, defects = exchange_arcs(pool.ids, pool.table, pool.ext, certify, vertices,
                                  allowed=frozenset({1, 2}))
    if defects:
        rest, count = defects[0]
        raise RuntimeError(f"almost complete module {rest} has {count} complements")
    tilts = [make_tilting(c, pool.ids, pool.dims) for c in vertices]
    return TiltingGraph(pool.quiver, pool, tilts, arcs)


def tilting_quiver(q: Quiver) -> TiltingGraph:
    """Exchange graph of all tilting modules (Dynkin components only)."""
    if q.n == 0:
        return TiltingGraph(q, Pool(q, []), [Tilting((), (), ())], [])
    return _graph(_dynkin_pool(q), q.n)


def kronecker_tilting_quiver(w: int) -> TiltingGraph:
    """Window piece of the double-arrow exchange graph.

    Vertices whose summands touch the outermost orbit index w may miss
    arcs that leave the window; they are collected in ``boundary`` and
    must be treated as window-limited by any verifier.
    """
    if w < 1:
        raise ValueError("window must be >= 1 to see any tilting pair")
    pool = _kron_pool(w)
    g = _graph(pool, 2)
    rim = {i for i, iid in enumerate(pool.ids) if iid.key[0] == w}
    g.boundary = {
        pos for pos, t in enumerate(g.tiltings) if any(i in rim for i in t.indices)
    }
    return g


# ---------------------------------------------------------------------------
# saturation bookkeeping


def zero_support(q: Quiver, dim_sum: Sequence[int]) -> set[int]:
    """Vertices where a summand-set dimension sum vanishes."""
    dv = q.dimvec(dim_sum)
    return {v for v, d in zip(q.vertices, dv) if d == 0}


# ---------------------------------------------------------------------------
# tame non-saturated analysis


class NonSaturatedSet(NamedTuple):
    window: int
    parts: dict[int, list[Tilting]]      # deleted vertex -> completions
    delta: list[Tilting]
    interior_nonsaturated: list[Tilting]
    agrees_with_flags: bool


def nonsaturated_tame(w: int) -> NonSaturatedSet:
    """Non-saturated tilting modules of the double-arrow quiver.

    For each vertex x the deleted quiver is a single point whose unique
    tilting module lifts to the window module supported off x; its
    unique completion contributes to the part at x.  The union is
    cross-checked against the saturation flags of every non-boundary
    window vertex.
    """
    if w < 2:
        raise ValueError("window must be >= 2 so the rim stays clear of the answer")
    q = named_diagram("K")
    pool = _kron_pool(w)
    g = kronecker_tilting_quiver(w)
    parts: dict[int, list[Tilting]] = {}
    seen: dict[tuple[int, ...], Tilting] = {}
    for x in q.vertices:
        deleted = q.delete_vertex(x)
        lifts: list[tuple[int, ...]] = []
        for sub in enumerate_tilting(deleted):
            want = [0] * q.n
            for live, d in zip(deleted.vertices, sub.dim_sum):
                want[q.v_pos[live]] = d
            matches = [
                i for i, rep in enumerate(pool.reps)
                if list(rep.dim_vector()) == want
            ]
            if len(matches) != 1:
                raise ValueError(
                    f"no unique window module with dimensions {want}; enlarge the window"
                )
            lifts.append((matches[0],))
        part: list[Tilting] = []
        for rest in lifts:
            comps = complement_indices(pool.table, rest)
            if not comps:
                raise ValueError(
                    f"no completion found for {rest} inside window {w}; enlarge it"
                )
            if len(comps) != 1:
                raise RuntimeError("support-restricted module completed ambiguously")
            idx = tuple(sorted(rest + (comps[0],)))
            t = seen.setdefault(idx, make_tilting(idx, pool.ids, pool.dims))
            part.append(t)
        parts[x] = part
    delta = sorted(seen.values(), key=lambda t: t.indices)
    interior = [
        g.tiltings[i]
        for i in range(len(g.tiltings))
        if i not in g.boundary and not g.saturation(i).saturated
    ]
    agrees = sorted(t.indices for t in interior) == [t.indices for t in delta]
    return NonSaturatedSet(w, parts, delta, interior, agrees)


# ---------------------------------------------------------------------------
# orientation invariance


def orientation_invariance(diagram: str | Quiver) -> dict:
    """Per-orientation (s, t) table with the deleted-vertex identity.

    For every orientation of the given Dynkin diagram: s counts tilting
    modules, t counts exchange arcs, and m sums the deleted-vertex
    tilting counts; the report checks 2t + m = n*s per orientation and
    that t never varies.
    """
    qs = orientations(diagram)
    n = qs[0].n
    if n > 5:
        raise ValueError("orientation sweep capped at rank 5")
    per = []
    violations = []
    t_seen = set()
    for k, q in enumerate(qs):
        g = tilting_quiver(q)
        s, t = len(g.tiltings), len(g.arcs)
        m = sum(len(enumerate_tilting(q.delete_vertex(x))) for x in q.vertices)
        lhs, rhs = 2 * t + m, n * s
        entry = {
            "orientation": k,
            "arrows": [(a.source, a.target) for a in q.arrows],
            "s": s, "t": t, "m": m, "lhs": lhs, "rhs": rhs,
        }
        per.append(entry)
        t_seen.add(t)
        if lhs != rhs:
            violations.append({"orientation": k, "reason": "identity", **entry})
    if len(t_seen) != 1:
        violations.append({"reason": "arc count varies", "values": sorted(t_seen)})
    return {
        "n": n,
        "per_orientation": per,
        "t_constant": len(t_seen) == 1,
        "violations": violations,
        "status": "pass" if not violations else "violation",
    }
