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
clique and complement search, the arc loop ``exchange_arcs``), run on
bit masks: row i of ``compatibility_table`` is an int with bit j set
when members i and j are compatible, and clique, complement and part
sets are ANDs of rows.  :mod:`tiltquiver.dup` runs it with its own
pool, Ext and certifier.

The same machinery runs on the double-arrow (tame) quiver restricted to
a preprojective/preinjective window; everything touching the window rim
is flagged window-limited instead of being trusted.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, cached_property
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

from .homsolve import IndexCache, SlotMap, checked_hom
from .quiver_core import Quiver, named_diagram, orientations
from .rep_a import (
    IndecId,
    Rep,
    exchange_sequence,
    ext1_dim,
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
    "verdict",
]


class Pool(IndexCache):
    """Indecomposable pool with its Ext table, index-level Hom caches and compatibility.

    Precondition: the members are pairwise non-isomorphic bricks from
    directed components (the indecomposables of a Dynkin quiver, or the
    double-arrow preprojectives and preinjectives).  Between two such
    modules Hom or Ext^1 vanishes, so dim Ext^1(X, Y) is the negative part
    of the Euler form <dim X, dim Y> (Ringel, LNM 1099) and dim Hom(X, Y)
    its positive part: the Ext table and each Hom basis's dimension are
    read off one Euler row per member.  Each member's rigidity is checked
    by ``ext1_dim``, which reads the End dimension the knitting solved
    (``homsolve.end_dim``).  ``names`` holds each member's label, built once.
    """

    def __init__(self, quiver: Quiver, items: Sequence[tuple[IndecId, Rep]]):
        super().__init__()
        self.quiver = quiver
        self.ids = [iid for iid, _ in items]
        self.names = [str(iid) for iid in self.ids]
        self.reps = [rep for _, rep in items]
        self.dims = [rep.dim_vector() for rep in self.reps]
        self._rows = [quiver.euler_row(d) for d in self.dims]
        self._ext = [[max(0, -sum(r * e for r, e in zip(row, dj))) for dj in self.dims]
                     for row in self._rows]
        for iid, rep in zip(self.ids, self.reps):
            if ext1_dim(rep, rep):
                raise RuntimeError(f"pool member {iid} is not rigid")

    def ext(self, i: int, j: int) -> int:
        return self._ext[i][j]

    def module(self, i: int) -> Rep:
        return self.reps[i]

    def hom_idx(self, i: int, j: int) -> list[SlotMap]:
        """Basis of Hom(member i, member j) (cached), solved only when its
        dimension max(0, <dim i, dim j>) is nonzero and checked against it."""
        got = self._hom.get((i, j))
        if got is None:
            dim = max(0, sum(r * e for r, e in zip(self._rows[i], self.dims[j])))
            got = self._hom[(i, j)] = checked_hom(self.reps[i], self.reps[j], dim,
                                                  (self.ids[i], self.ids[j]))
        return got

    def compatible(self, i: int, j: int) -> bool:
        return self.ext(i, j) == 0 and self.ext(j, i) == 0

    @cached_property
    def table(self) -> list[int]:
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
    (bar summands of the duplicated algebra stay implicit); ``names`` are
    the summands' labels, shared with the pool."""

    indices: tuple[int, ...]
    ids: tuple[Hashable, ...]
    names: tuple[str, ...]
    dim_sum: tuple[int, ...]

    def label(self) -> str:
        return "+".join(self.names)


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


def verdict(violations: list, stats: dict) -> dict:
    """The report every claim checker returns: its ``stats``, the
    ``violations`` as its counterexamples, and status ``pass`` when there
    are none, else ``violation``."""
    return {"status": "violation" if violations else "pass", "stats": stats,
            "counterexamples": violations}


# ---------------------------------------------------------------------------
# the exchange-graph engine (shared with dup)


def compatibility_table(size: int, compatible: Callable[[int, int], bool]) -> list[int]:
    """Row i: the bit mask of every other pool index j with compatible(i, j)."""
    return [sum(1 << j for j in range(size) if j != i and compatible(i, j))
            for i in range(size)]


def cliques(table: Sequence[int], size: int) -> list[tuple[int, ...]]:
    """All ascending pairwise-compatible index tuples of the given size,
    in lexicographic order: each step takes the lowest candidate bit and
    keeps the higher candidates in its row, while enough remain."""
    out: list[tuple[int, ...]] = []

    def rec(chosen: tuple[int, ...], cands: int) -> None:
        if len(chosen) == size:
            out.append(chosen)
            return
        need = size - len(chosen)
        while cands.bit_count() >= need:
            low = cands & -cands
            cands ^= low
            i = low.bit_length() - 1
            rec(chosen + (i,), cands & table[i])

    rec((), (1 << len(table)) - 1)
    return out


def complement_indices(table: Sequence[int], rest: Sequence[int]) -> list[int]:
    """Every pool index outside ``rest`` compatible with all of it."""
    comps = (1 << len(table)) - 1
    for r in rest:
        comps &= table[r]
    return [j for j in range(len(table)) if comps >> j & 1]


def exchange_arcs(
    ids: Sequence[Hashable],
    table: Sequence[int],
    ext: Callable[[int, int], int],
    certify: Callable[[int, int, tuple[int, ...]], tuple[int, ...]],
    vertices: Sequence[tuple[int, ...]],
    allowed: frozenset[int],
) -> tuple[list[Arc], list[tuple[tuple[int, ...], int]]]:
    """Certified arcs between the given ascending vertices, sorted by (src, dst).

    Visits every almost complete part of a vertex once, in first-seen
    order.  A part with two complements x, y gives one arc, oriented by
    Ext^1(y, x) != 0; ``certify(x, y, rest)`` raises ``RuntimeError``
    unless the exchange sequence 0 -> x -> E -> y -> 0 holds, and returns
    the dimensions of E.  Complement counts not in ``allowed`` come back
    as defects.  Vertices and parts are keyed by bit mask; the part's
    tuple ``rest`` is built only for an arc or a defect.
    """
    masks = [sum(1 << j for j in t) for t in vertices]
    position = {m: k for k, m in enumerate(masks)}
    everyone = (1 << len(table)) - 1
    arcs: list[Arc] = []
    defects: list[tuple[tuple[int, ...], int]] = []
    seen: set[int] = set()
    for t, mask in zip(vertices, masks):
        for drop in t:
            part = mask ^ 1 << drop
            if part in seen:
                continue
            seen.add(part)
            comps = everyone
            for j in t:
                if j != drop:
                    comps &= table[j]
            count = comps.bit_count()
            if count != 2 and count in allowed:
                continue
            rest = tuple(j for j in t if j != drop)
            if count not in allowed:
                defects.append((rest, count))
            if count != 2:
                continue
            low = comps & -comps
            c1, c2 = low.bit_length() - 1, (comps ^ low).bit_length() - 1
            e12, e21 = ext(c1, c2), ext(c2, c1)
            if (e12 == 0) == (e21 == 0):
                raise RuntimeError(f"cannot orient the exchange of {ids[c1]} / {ids[c2]}")
            x, y = (c2, c1) if e12 else (c1, c2)
            arcs.append(Arc(position[part | 1 << x], position[part | 1 << y],
                            ids[x], ids[y], certify(x, y, rest)))
    arcs.sort(key=lambda a: (a.src, a.dst))
    return arcs, defects


def make_tilting(idx: tuple[int, ...], ids: Sequence[Hashable], names: Sequence[str],
                 dims: Sequence[tuple[int, ...]]) -> Tilting:
    """The tilting record of pool indices ``idx``; ``names[i]`` is the
    label and ``dims[i]`` the dimension vector (``dim_vector``) of pool
    member i."""
    return Tilting(idx, tuple(ids[i] for i in idx), tuple(names[i] for i in idx),
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
        return [Tilting((), (), (), ())]
    pool = _dynkin_pool(q)
    return [make_tilting(c, pool.ids, pool.names, pool.dims) for c in cliques(pool.table, q.n)]


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
    by an exchange sequence from the pool's index-level caches (``hom_idx``,
    ``radical_idx``), so arcs sharing a triple of members compose it once."""

    def certify(x: int, y: int, rest: tuple[int, ...]) -> tuple[int, ...]:
        got = exchange_sequence(pool.reps[x], [pool.reps[r] for r in rest],
                                hom_x=[pool.hom_idx(x, r) for r in rest],
                                radical=lambda a, b: pool.radical_idx(x, rest[a], rest[b]))
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
    tilts = [make_tilting(c, pool.ids, pool.names, pool.dims) for c in vertices]
    return TiltingGraph(pool.quiver, pool, tilts, arcs)


def tilting_quiver(q: Quiver) -> TiltingGraph:
    """Exchange graph of all tilting modules (Dynkin components only)."""
    if q.n == 0:
        return TiltingGraph(q, Pool(q, []), [Tilting((), (), (), ())], [])
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
            t = seen.setdefault(idx, make_tilting(idx, pool.ids, pool.names, pool.dims))
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
    """Per-orientation (s, t) table with the deleted-vertex identity, as a
    ``verdict``.

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
    return verdict(violations, {"n": n, "orientations": len(per),
                                "t_constant": len(t_seen) == 1, "per_orientation": per})
