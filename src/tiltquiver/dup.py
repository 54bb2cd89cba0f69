"""Modules over the one-step duplication of a path algebra.

For a path algebra ``A`` of an acyclic quiver, the duplicated algebra is
the triangular matrix algebra ``[[A, 0], [DA, A]]`` with ``DA`` the
minimal injective cogenerator viewed as a bimodule.  Its left modules
are triples ``(X, Y, phi)``: two representations of the same quiver (a
"top" ``X`` and a "bottom" ``Y``) plus a connecting A-map
``phi: DA (x) X -> Y``.

The bottom copy of the module category of ``A`` embeds as the triples
``(0, Y, 0)``; the extra objects of interest here are, per vertex ``a``:

* the projective-injective ``(P_a, I_a, mult)`` ("bar" projective),
* the shifted module ``W_a``, the inverse translate of the embedded
  injective at ``a``, built as the cokernel of the minimal left
  approximation of the embedded projective at ``a`` by bar projectives
  (its injective envelope).

Hom spaces and exchange sequences are delegated to
:mod:`tiltquiver.homsolve`, and Ext^1 is read off each object's
presentation of length one (``DupContext.ext1_idx``); this module
supplies the triple-specific structure and the tilting combinatorics:
enumeration of the basic tilting modules containing all bar projectives,
their exchange graph, and the checkers the command line exposes.
Enumeration and the exchange graph run on the one engine in
:mod:`tiltquiver.tilt_a`, fed with this module's pool,
``DupContext.ext1_idx`` and an exchange-sequence certifier.

The duplicated algebra is a bound quiver algebra, and a triple is a
``homsolve.Rep``, the one module class, over the layout of its quiver
(``_layout``): each arrow of the quiver in both layers, ``("t", a)``
and ``("b", a)``, and one connecting arrow ``("m", s, p)`` per maximal
path ``p: s ~> e`` (the top of DA as a bimodule), from the top space at
``e`` to the bottom space at ``s``.  The relations are those of the dual path basis: for paths
``r: s ~> w`` and ``y: a ~> e``, the top arrows of ``y``, then the
connecting arrow of ``p``, then the bottom arrows of ``r`` act as the
dual of ``z: w ~> a`` when ``p = r z y``, and as zero when ``p`` does
not factor so.  ``validate`` checks them through the projectives.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, cached_property
from itertools import accumulate
from typing import Callable, Iterator, NamedTuple, Sequence

from . import homsolve, rep_a, tilt_a
from .exactlin import Rat, RatMatrix, SparseEchelon, as_int_if_integral
from .homsolve import Layout, Rep, SlotMap
from .quiver_core import Quiver

Slot = tuple[str, int]


# ---------------------------------------------------------------------------
# the duplicated quiver (one per quiver, cached)


@cache
def _layout(q: Quiver) -> Layout:
    """The slots and arrows of the duplicated quiver: each arrow of q in
    both layers, then one connecting arrow ``("m", s, p)`` per maximal
    path p: s ~> e (s a source, e a sink, so an isolated vertex's trivial
    path counts), from ("t", e) to ("b", s)."""
    slot_keys = tuple(("t", v) for v in q.vertices) + tuple(("b", v) for v in q.vertices)
    ends: dict = {}
    for a in q.arrows:
        for layer in ("t", "b"):
            ends[(layer, a.aid)] = ((layer, a.source), (layer, a.target))
    for (s, e), paths in q.all_paths().items():
        if q.is_source(s) and q.is_sink(e):
            for p in paths:
                ends[("m", s, p)] = (("t", e), ("b", s))
    return Layout(slot_keys, ends)


def validate(m: Rep) -> None:
    """Check the relations of the duplicated algebra on the triple m,
    raising ``RuntimeError`` at the first slot where one fails: Hom(P_s,
    m) is the part of m_s that the relations at s kill, so they hold iff
    dim Hom(P_s, m) = dim m_s at every slot (Yoneda)."""
    for s in m.slot_keys:
        if homsolve.hom_dim(slot_projective(m.quiver, s), m) != m.dims[s]:
            raise RuntimeError(f"a relation of the duplicated algebra fails at {s}")


# ---------------------------------------------------------------------------
# constructors


def _triple(q: Quiver, top: Rep | None, bot: Rep | None,
            conn: Callable[[int, tuple[str, ...], int], RatMatrix] | None = None) -> Rep:
    """The triple with layers ``top`` and ``bot`` (None: zero) and the
    connecting matrices ``conn(s, p, e)`` of the maximal paths p: s ~> e
    (zero without ``conn``)."""
    dims = {(layer, v): rep.dims[v] for layer, rep in (("t", top), ("b", bot))
            if rep is not None for v in q.vertices}
    lay = _layout(q)
    maps = {}
    for lab, ((_, e), (_, s)) in lay.ends.items():
        if lab[0] == "m":
            maps[lab] = (conn(s, lab[2], e) if conn else
                         RatMatrix.zeros(dims.get(("b", s), 0), dims.get(("t", e), 0)))
        else:
            rep = top if lab[0] == "t" else bot
            maps[lab] = RatMatrix.zeros(0, 0) if rep is None else rep.maps[lab[1]]
    return Rep(q, lay, dims, maps)


def embed(q: Quiver, m: Rep) -> Rep:
    """The A-module m placed in the bottom layer, zero connecting map."""
    return _triple(q, None, m)


@cache
def slot_projective(q: Quiver, s: Slot) -> Rep:
    """The indecomposable projective at slot s, built once per quiver and
    shared: the embedded A-projective at a bottom slot, the bar projective
    at a top slot.  Callers must not mutate it."""
    layer, a = s
    return embed(q, rep_a.projective(q, a)) if layer == "b" else bar_projective(q, a)


def bar_projective(q: Quiver, a: int) -> Rep:
    """The projective-injective triple (P_a, I_a, multiplication).

    Top basis at v: paths a ~> v.  Bottom basis at u: dual to paths
    u ~> a.  The connecting arrow of a maximal path p: s ~> e sends the
    top basis path y to the dual path r whenever p traverses r then y.
    """
    def conn(s: int, p: tuple[str, ...], e: int) -> RatMatrix:
        ys = q.paths_between(a, e)
        return RatMatrix([[int(r + y == p) for y in ys] for r in q.paths_between(s, a)],
                         cols=len(ys))

    return _triple(q, rep_a.projective(q, a), rep_a.injective(q, a), conn)


@cache
def _bar_hom(q: Quiver, a: int, b: int) -> list[SlotMap]:
    """Hom basis from the bar projective at vertex position a to the one
    at b, solved once per quiver and shared: callers must not mutate it.
    Its dimension is the target's at slot (t, a) (Yoneda)."""
    src, dst = (slot_projective(q, ("t", q.vertices[k])) for k in (a, b))
    return homsolve.checked_hom(src, dst, dst.dims[("t", q.vertices[a])],
                                (f"B{q.vertices[a]}", f"B{q.vertices[b]}"))


def _bar_cokernel(q: Quiver, m: Rep) -> Rep:
    """The cokernel of the minimal left approximation of the embedded m by
    the bar projectives; ``homsolve.NoExchangeSequence`` if there is none.
    Hom(m, bar P_a) has dimension m_a: the bar P_a is the injective hull
    of the simple at slot (b, a)."""
    x = embed(q, m)
    bars = [slot_projective(q, ("t", a)) for a in q.vertices]
    hom_x = [homsolve.checked_hom(x, b, m.dims[a], (f"embedded {m.dim_vector()}", f"B{a}"))
             for a, b in zip(q.vertices, bars)]
    return homsolve.exchange_sequence(x, bars, hom_x, lambda a, b: homsolve.radical_coordinates(
        x, hom_x[a], _bar_hom(q, a, b), hom_x[b]))[1]


def shifted_module(q: Quiver, i: int) -> Rep:
    """The shifted module W_i: the inverse translate of the embedded
    injective I_i, built as the cokernel of the injective envelope of
    the embedded projective P_i.

    The inverse Nakayama functor takes the minimal injective
    copresentation I_i -> E0 -> E1 to the injective envelope of the
    embedded P_i, and no nonzero map runs from an injective to the
    embedded I_i, so tau^{-1} I_i is that envelope's cokernel
    (Auslander-Reiten-Smalo, IV.1-2).  The socle of P_i lies in the
    bottom layer, so its envelope is its minimal left approximation by
    the bar projectives, and W_i the cokernel of that exchange sequence.
    Certified on construction: nonzero top layer (so never an embedded
    module) and one-dimensional endomorphism ring.  Its projective
    dimension is 1 by construction: 0 -> P_i -> E -> W_i -> 0 is exact
    (the approximation is certified injective), and E, a sum of bar
    projectives, does not contain P_i, so the sequence does not split.
    """
    try:
        w = _bar_cokernel(q, rep_a.projective(q, i))
    except homsolve.NoExchangeSequence as exc:
        raise RuntimeError(f"envelope of the embedded projective at {i}: {exc}") from exc
    if not any(w.dims[("t", v)] for v in q.vertices):
        raise RuntimeError("shifted module degenerated into the embedded layer")
    if homsolve.end_dim(w) != 1:
        raise RuntimeError("shifted module failed to be indecomposable")
    return w


# ---------------------------------------------------------------------------
# the working context


class DupPoolId(NamedTuple):
    """Identifier of a candidate summand: E = embedded, W = shifted."""

    kind: str
    key: object

    def __str__(self) -> str:
        return f"{self.kind}{self.key}"


class DupContext(homsolve.IndexCache):
    """Canonical data of a duplicated path algebra, with hom/ext caches by ``objects()`` index."""

    def __init__(self, quiver: Quiver) -> None:
        super().__init__()
        self.quiver = quiver
        self.n = len(quiver.vertices)
        self._pool: list[tuple[DupPoolId, Rep]] | None = None
        self._a_pool: tilt_a.Pool | None = None
        self._objects: list[tuple[DupPoolId, Rep]] | None = None
        self._hom_dim: dict[tuple[int, int], int] = {}
        self._ext: dict[tuple[int, int], int] = {}
        self._rules_checked = False
        self._tiltings: list[tilt_a.Tilting] | None = None

    # -- pool ---------------------------------------------------------------

    def pool(self) -> list[tuple[DupPoolId, Rep]]:
        """Candidate non-bar summands: embedded indecomposables + shifts."""
        if self._pool is None:
            q = self.quiver
            # the embedded members keep the classical pool's indices, so its
            # dims and Euler-form Ext^1 table index them directly
            apool = self._a_pool = tilt_a._dynkin_pool(q)
            items: list[tuple[DupPoolId, Rep]] = [
                (DupPoolId("E", iid), embed(q, rep))
                for iid, rep in zip(apool.ids, apool.reps)]
            for v in q.vertices:
                items.append((DupPoolId("W", v), shifted_module(q, v)))
            self._pool = items
            self._ids = [pid for pid, _ in items]
        return self._pool

    def objects(self) -> list[tuple[DupPoolId, Rep]]:
        """Pool plus the bar projectives (global hom-cache index space)."""
        if self._objects is None:
            self._objects = self.pool() + [
                (DupPoolId("B", v), slot_projective(self.quiver, ("t", v)))
                for v in self.quiver.vertices
            ]
        return self._objects

    def module(self, i: int) -> Rep:
        return self.objects()[i][1]

    def pool_size(self) -> int:
        return len(self.pool())

    def pool_ids(self) -> list[DupPoolId]:
        self.pool()
        return self._ids

    def embedded_projective_indices(self) -> list[int]:
        """Pool positions of the embedded A-projectives (one per vertex)."""
        self.pool()
        by_dims = {dv: i for i, dv in enumerate(self._a_pool.dims)}
        return [
            by_dims[rep_a.projective(self.quiver, a).dim_vector()]
            for a in self.quiver.vertices
        ]

    def hom_dim_idx(self, i: int, j: int) -> int:
        """dim Hom(object i, object j) (cached): the rank of the
        intertwining system (``homsolve.hom_dim``), with no basis."""
        got = self._hom_dim.get((i, j))
        if got is None:
            objs = self.objects()
            got = self._hom_dim[(i, j)] = homsolve.hom_dim(objs[i][1], objs[j][1])
        return got

    def hom_idx(self, i: int, j: int) -> list[SlotMap]:
        """Basis of Hom(object i, object j) (cached), for the certificates
        that read its maps.  Its dimension is fixed first, by a route that
        builds no basis: dim N_(t, a) from a bar projective P_a, the
        projective at slot (t, a) (Yoneda); dim M_(b, a) into one, as P_a
        is also the injective hull of the simple at (b, a); otherwise
        ``hom_dim_idx``.  A zero dimension gives the empty basis with no
        solve; a solved basis of any other length is a ``RuntimeError``."""
        got = self._hom.get((i, j))
        if got is None:
            (pid, m), (qid, n) = self.objects()[i], self.objects()[j]
            if pid.kind == "B":
                dim = n.dims[("t", pid.key)]
            elif qid.kind == "B":
                dim = m.dims[("b", qid.key)]
            else:
                dim = self.hom_dim_idx(i, j)
            got = self._hom[(i, j)] = homsolve.checked_hom(m, n, dim, (pid, qid))
        return got

    @cached_property
    def _euler_rows(self) -> list[tuple[str, tuple[int, ...]]]:
        """Per object M, the layer L that ``ext1_idx`` reads and the Euler
        row of dim M_L, so that <dim M_L, e> is a dot product with e."""
        vs = self.quiver.vertices
        rows = []
        for pid, m in self.objects():
            layer = "b" if pid.kind == "E" else "t"
            rows.append((layer, self.quiver.euler_row([m.dims[(layer, v)] for v in vs])))
        return rows

    def ext1_idx(self, i: int, j: int) -> int:
        """dim Ext^1 between objects (cached), read off a projective
        presentation 0 -> P1 -> P0 -> M -> 0 of object i that needs no
        computing: as dim Hom(P_s, N) = dim N_s (Yoneda), dim Ext^1(M, N)
        = dim Hom(M, N) - <dim M_L, dim N_L> + delta, with <,> the Euler
        form of A on one layer L.  An embedded M = (0, Y, 0) has A's
        standard resolution, embedded (Ringel, LNM 1099): L is the
        bottom, delta = 0.  W_i has 0 -> P_i -> E -> W_i -> 0
        (``shifted_module``), E a sum of bar projectives with W_i's top
        layer, and dim Hom(bar P_a, N) = N_(t, a) = <dim P_a, dim N_top>:
        L is the top, delta = dim N_(b, i).  A bar projective resolves by
        itself: L is the top and delta = 0, which gives 0.  dim Hom(M, N)
        is the rank-only ``hom_dim_idx``, and <dim M_L, -> is M's row of
        ``_euler_rows``: no Hom basis is built.
        """
        got = self._ext.get((i, j))
        if got is not None:
            return got
        pid, n = self.objects()[i][0], self.objects()[j][1]
        layer, row = self._euler_rows[i]
        val = self.hom_dim_idx(i, j) - sum(
            r * n.dims[(layer, v)] for r, v in zip(row, self.quiver.vertices))
        if pid.kind == "W":
            val += n.dims[("b", pid.key)]
        if val < 0:
            raise RuntimeError(f"negative Ext^1 between objects {i} and {j}")
        self._ext[(i, j)] = val
        return val

    # -- compatibility rules -------------------------------------------------

    def _rule_ext_zero(self, i: int, j: int) -> bool:
        """Predicted vanishing of Ext^1(pool_i, pool_j) without the engine."""
        pid, qid = self.pool_ids()[i], self.pool_ids()[j]
        if pid.kind == "W" and qid.kind == "E":
            return self._a_pool.dims[j][self.quiver.v_pos[pid.key]] == 0
        if pid.kind == "E" and qid.kind == "E":
            return self._a_pool.ext(i, j) == 0
        # E -> W and W -> W never extend
        return True

    def compatible(self, i: int, j: int) -> bool:
        return self._rule_ext_zero(i, j) and self._rule_ext_zero(j, i)

    @cached_property
    def table(self) -> list[int]:
        return tilt_a.compatibility_table(self.pool_size(), self.compatible)

    def validate_rules(self) -> None:
        """Cross-check every predicted Ext vanishing against the solver,
        ``ext1_idx`` on every ordered pool pair.  That reads rank-only Hom
        dimensions, so the check builds no Hom basis: the certificates
        that follow solve only the bases they read (``hom_idx``), and a
        basis between pool members is checked against its rank found
        here."""
        if self._rules_checked:
            return
        r = len(self.pool())
        for i in range(r):
            for j in range(r):
                rule = self._rule_ext_zero(i, j)
                engine = self.ext1_idx(i, j) == 0
                if rule != engine:
                    raise RuntimeError(
                        f"compatibility rule disagrees with the solver on "
                        f"({self.pool_ids()[i]}, {self.pool_ids()[j]}): "
                        f"rule says {'zero' if rule else 'nonzero'}, solver says "
                        f"{self.ext1_idx(i, j)}"
                    )
        self._rules_checked = True


# ---------------------------------------------------------------------------
# tilting enumeration and the exchange graph


def enumerate_tilting_dup(ctx: DupContext) -> list[tilt_a.Tilting]:
    """All basic tilting modules containing every bar projective, after
    ``validate_rules`` (enumerated once per context).

    A set of n pairwise compatible pool members completes, together with
    the n bar projectives, to a tilting module over the duplicated
    algebra; the bar summands are left implicit everywhere.
    """
    if ctx._tiltings is None:
        ctx.validate_rules()
        ids = ctx.pool_ids()
        names = [str(pid) for pid in ids]
        dims = [m.dim_vector() for _, m in ctx.pool()]
        ctx._tiltings = [tilt_a.make_tilting(c, ids, names, dims)
                         for c in tilt_a.cliques(ctx.table, ctx.n)]
    return ctx._tiltings


def tilting_quiver_dup(ctx: DupContext) -> tilt_a.TiltingGraph:
    """Exchange graph of the tilting modules over the duplicated algebra.

    An arc runs from the set containing x to the set containing y when
    exchanging x for y in their common almost complete part, oriented by
    Ext^1(y, x) != 0 (solver-checked); each arc also carries an
    exchange sequence 0 -> x -> E -> y -> 0 with E in the additive
    closure of the common part plus bar projectives.

    The sequence is certified once per oriented pair (x, y), at the
    pair's first arc, by ``homsolve.certify_exchange`` from cached Hom
    bases: the approximation x -> E is injective, dim E = dim x + dim y,
    and the maps E -> y killing x form a line spanned by a surjection.
    The composites it needs depend only on object indices and are read
    from ``radical_idx`` and ``composite_idx``.  The summands of E are
    the targets of the approximation components the certificate returns.
    Exactness depends only on x, y and the component maps, so the pair's
    sequence serves every arc whose part contains those summands; by
    Krull-Schmidt that puts E in the part's additive closure, and every
    arc checks that its part holds the pair's non-bar summands.  The
    pair's first arc also checks dim Ext^1(y, x) = 1, which gives every
    non-split extension of y by x, each later arc's own included, the
    same middle term (Happel-Unger).
    Parts without exactly two completions are listed in ``defects``.
    """
    tilts = enumerate_tilting_dup(ctx)
    ids = ctx.pool_ids()
    objs = ctx.objects()
    bar_indices = list(range(ctx.pool_size(), ctx.pool_size() + ctx.n))
    pairs: dict[tuple[int, int], tuple[tuple[int, ...], frozenset[int]]] = {}

    def certify(x: int, y: int, rest: tuple[int, ...]) -> tuple[int, ...]:
        got = pairs.get((x, y))
        if got is None:
            ext = ctx.ext1_idx(y, x)
            if ext != 1:
                raise RuntimeError(f"Ext^1({ids[y]}, {ids[x]}) has dimension {ext}, not 1")
            members = list(rest) + bar_indices
            cert = homsolve.certify_exchange(
                objs[x][1], [objs[k][1] for k in members], objs[y][1],
                hom_x=[ctx.hom_idx(x, k) for k in members],
                hom_y=[ctx.hom_idx(k, y) for k in members],
                radical=lambda a, b: ctx.radical_idx(x, members[a], members[b]),
                composites=lambda a: ctx.composite_idx(x, members[a], y))
            if cert is None:
                raise RuntimeError(f"exchange cokernel at {ids[x]} is not the expected "
                                   f"complement {ids[y]}")
            got = pairs[(x, y)] = (tuple(cert), frozenset(
                rest[i] for i, _ in cert.components if i < len(rest)))
        e_dims, summands = got
        if not summands.issubset(rest):
            raise RuntimeError(f"middle term of the exchange of {ids[x]} for {ids[y]} "
                               f"is not in add of the part {[str(ids[k]) for k in rest]}")
        return e_dims

    arcs, defects = tilt_a.exchange_arcs(ids, ctx.table, ctx.ext1_idx, certify,
                                         [t.indices for t in tilts],
                                         allowed=frozenset({2}))
    return tilt_a.TiltingGraph(
        ctx.quiver, ctx, tilts, arcs,
        defects=[f"almost complete part {list(rest)} has {count} completions"
                 for rest, count in defects])


# ---------------------------------------------------------------------------
# checkers


def verify_embedding(ctx: DupContext) -> dict:
    """The classical exchange graph sits inside the duplicated one, as a
    ``tilt_a.verdict``.

    Maps each tilting module over A to its embedded image, checks the
    map is a bijection onto the all-embedded vertices, and that arcs
    between embedded vertices correspond exactly both ways.
    """
    kA = tilt_a.tilting_quiver(ctx.quiver)
    dup = tilting_quiver_dup(ctx)
    id_to_pos = {pid: i for i, pid in enumerate(ctx.pool_ids())}
    violations: list[str] = []

    image: dict[int, int] = {}
    for i, t in enumerate(kA.tiltings):
        want = [id_to_pos[DupPoolId("E", iid)] for iid in t.ids]
        try:
            image[i] = dup.index_of(want)
        except ValueError:
            violations.append(f"embedded image of {t.label()} is not tilting")
    embedded_vertices = {
        i for i, t in enumerate(dup.tiltings)
        if all(pid.kind == "E" for pid in t.ids)
    }
    if set(image.values()) != embedded_vertices:
        violations.append(
            "embedded images do not exhaust the all-embedded tilting sets"
        )
    a_arcs = {(image[a.src], image[a.dst]) for a in kA.arcs
              if a.src in image and a.dst in image}
    dup_arcs_embedded = {
        (a.src, a.dst) for a in dup.arcs
        if a.src in embedded_vertices and a.dst in embedded_vertices
    }
    for missing in sorted(a_arcs - dup_arcs_embedded):
        violations.append(f"arc {missing} lost under embedding")
    for extra in sorted(dup_arcs_embedded - a_arcs):
        violations.append(f"arc {extra} between embedded vertices has no source arc")
    return tilt_a.verdict(violations, {
        "classical_vertices": len(kA.tiltings),
        "classical_arcs": len(kA.arcs),
        "dup_vertices": len(dup.tiltings),
        "dup_arcs": len(dup.arcs),
        "embedded_vertices": len(embedded_vertices),
    })


def verify_regularity(ctx: DupContext) -> dict:
    """Every vertex of the duplicated exchange graph has total degree n,
    and the graph is connected (a ``tilt_a.verdict``)."""
    dup = tilting_quiver_dup(ctx)
    n = ctx.n
    violations = list(dup.defects)
    for i, t in enumerate(dup.tiltings):
        deg = dup.out_degree(i) + dup.in_degree(i)
        if deg != n:
            violations.append(f"{t.label()} has degree {deg}, expected {n}")
    connected = dup.is_connected()
    if not connected:
        violations.append("exchange graph is not connected")
    return tilt_a.verdict(violations, {"vertices": len(dup.tiltings), "arcs": len(dup.arcs),
                                       "degree": n, "connected": connected})


def verify_shift_completion(ctx: DupContext) -> dict:
    """Shift completion criterion, solver-checked, as a ``tilt_a.verdict``.

    For every almost complete embedded part M (n-1 pairwise compatible
    embedded indecomposables) and every vertex i: M + shift(i) is
    tilting exactly when the total dimension of M at i vanishes.  All
    Ext conditions are evaluated by the solver, not the counting rule.
    Also checks that a non-sincere M misses exactly one vertex.
    """
    ids = ctx.pool_ids()
    shifts = {pid.key: i for i, pid in enumerate(ids) if pid.kind == "W"}
    n = ctx.n
    violations: list[str] = []
    checked = 0
    parts = [c for c in tilt_a.cliques(ctx.table, n - 1)
             if all(ids[i].kind == "E" for i in c)]

    def engine_tilting(indices: tuple[int, ...]) -> bool:
        return all(
            ctx.ext1_idx(a, b) == 0
            for a in indices for b in indices
        )

    for part in parts:
        dimsum = [0] * n
        for c in part:
            dv = ctx._a_pool.dims[c]
            for k in range(n):
                dimsum[k] += dv[k]
        zeros = [v for v, pos in ctx.quiver.v_pos.items() if dimsum[pos] == 0]
        if zeros and len(zeros) != 1:
            violations.append(
                f"{'+'.join(str(ids[c]) for c in part)} misses vertices {zeros}"
            )
        for v in ctx.quiver.vertices:
            predicted = dimsum[ctx.quiver.v_pos[v]] == 0
            actual = engine_tilting(part + (shifts[v],))
            checked += 1
            if predicted != actual:
                violations.append(
                    f"{'+'.join(str(ids[c]) for c in part)} with W{v}: "
                    f"support rule says {predicted}, solver says {actual}"
                )
    return tilt_a.verdict(violations, {"almost_complete_parts": len(parts),
                                       "checked_completions": checked})


# ---------------------------------------------------------------------------
# deep check: every projective coresolves in add of each tilting module


def deep_check_projectives(ctx: DupContext) -> list[int]:
    """The deep check's projectives by object index: bars, then embedded."""
    return list(range(ctx.pool_size(), ctx.pool_size() + ctx.n)) + ctx.embedded_projective_indices()


def _cokernel_in_add(ctx: DupContext, p: int, comps: tuple[tuple[int, int], ...]
                     ) -> Callable[[list[int]], list[int] | None]:
    """The add T test of T1 = coker(f: P -> T0), f the approximation of
    the projective object p with components ``comps`` (object index m_c,
    position of h_c in ``hom_idx(p, m_c)``).  A map T0 -> k is a vector
    over the bases ``hom_idx(m_c, k)``; Hom(-, k) is left exact, so
    Hom(T1, k) is the kernel of precomposition with f (``hom``, by
    ``homsolve.exchange_line``).  T1 is in add T iff its minimal left
    add(T)-approximation is injective with dim E = dim T1
    (Auslander-Smalo, ``decide``).  Returns the test: component counts
    per member, or None, certified by recomputing every composite block
    the verdict read (``RuntimeError`` on a mismatch)."""
    objs = ctx.objects()
    slots = objs[p][1].slot_keys
    # per slot, where each component starts in T0, then T0's dimension
    offsets = {s: list(accumulate((objs[m][1].dims[s] for m, _ in comps), initial=0))
               for s in slots}
    dims = tuple(offsets[s][-1] - objs[p][1].dims[s] for s in slots)
    hom_p = [ctx.hom_idx(p, m) for m, _ in comps]
    f_maps = [(c, hom_p[c][pos]) for c, (_, pos) in enumerate(comps)]

    @cache
    def hom(k: int) -> tuple[dict[int, dict[int, Rat]], list[tuple[int, int]]]:
        """The canonical kernel basis by free column, its last nonzero
        entry, and each column's (component, basis position)."""
        columns = [(c, l) for c, (m, _) in enumerate(comps) for l in range(len(ctx.hom_idx(m, k)))]
        if not ctx.hom_idx(p, k):                 # every map T0 -> k kills P
            return {col: {col: 1} for col in range(len(columns))}, columns
        _, kernel = homsolve.exchange_line(f_maps, hom_p, [ctx.hom_idx(m, k) for m, _ in comps],
                                           lambda c: ctx.composite_idx(p, comps[c][0], k))
        basis = [{col: as_int_if_integral(x) for col, x in enumerate(v) if x} for v in kernel]
        return {max(vec): vec for vec in basis}, columns

    @cache
    def radical(j: int, i: int) -> tuple:
        """``homsolve.radical_coordinates`` of T1 -> j -> i in ``hom(i)``,
        each composite lifted through ``composite_idx(m_c, j, i)``."""
        (phis, columns), (basis, _) = hom(j), hom(i)
        starts = list(accumulate((len(ctx.hom_idx(m, i)) for m, _ in comps), initial=0))
        span = SparseEchelon(len(basis))
        for q in range(len(ctx.hom_idx(j, i))):
            for phi in phis.values():
                lift: dict[int, Rat] = {}
                for col, a in phi.items():
                    c, l = columns[col]
                    for z, v in enumerate(ctx.composite_idx(comps[c][0], j, i)[l][q], starts[c]):
                        if v:
                            lift[z] = lift.get(z, 0) + a * v
                coords = [lift.get(f, 0) for f in basis]
                for x, vec in zip(coords, basis.values()):
                    for f, v in vec.items() if x else ():
                        lift[f] = lift.get(f, 0) - x * v
                if any(lift.values()):
                    raise RuntimeError(f"deep check: a composite leaves Hom(T1, {i})")
                span.add(dict(enumerate(coords)))
        rows, _ = span.result()
        return tuple(tuple(as_int_if_integral(row.get(n, 0)) for n in range(len(basis)))
                     for row in rows)

    @cache
    def decide(support: tuple[int, ...]) -> Counter | None:
        """The test on the members with Hom(T1, k) nonzero.  T1 -> E is
        injective iff its lift G: T0 -> E, built from Hom basis maps, has
        rank dim T0_s - dim P_s at every slot s; G . f = 0 is checked."""
        found = homsolve.minimal_left_approximation(
            [list(hom(k)[0]) for k in support], lambda a, b: radical(support[a], support[b]))
        tops = tuple((support[i], f) for i, f in found)
        if tuple(sum(objs[k][1].dims[s] for k, _ in tops) for s in slots) != dims:
            return None
        f_blocks = [homsolve._block_nonzeros(h) for _, h in f_maps]
        for t, s in enumerate(slots):
            offs, echelon = offsets[s], SparseEchelon(offsets[s][-1])
            f_rows = [row for h in f_blocks for row in h[t]]          # f_s, T0_s x P_s
            for k, f in tops:
                basis, columns = hom(k)
                block: list[dict[int, Rat]] = [{} for _ in range(objs[k][1].dims[s])]
                for col, a in basis[f].items():
                    c, l = columns[col]
                    g = homsolve._block_nonzeros(ctx.hom_idx(comps[c][0], k)[l])
                    for out, g_row in zip(block, g[t]):
                        for u, v in g_row:
                            out[offs[c] + u] = out.get(offs[c] + u, 0) + a * v
                for row in block:
                    gf: dict[int, Rat] = {}
                    for u, a in row.items():
                        for w, v in f_rows[u]:
                            gf[w] = gf.get(w, 0) + a * v
                    if any(gf.values()):
                        raise RuntimeError(f"deep check: a map T1 -> {k} does not kill P")
                    echelon.add(row)
            if echelon.rank != offs[-1] - objs[p][1].dims[s]:
                return None
        return Counter(k for k, _ in tops)

    def multiplicities(members: list[int]) -> list[int] | None:
        if not any(dims):                         # the injective f keeps dimensions
            return [0] * len(members)
        support = tuple(k for k in members if hom(k)[0])
        counts = decide(support)
        if counts is not None:
            return [counts[k] for k in members]
        # a None is certified: the blocks that hom, then radical, read
        for x, i, y in sorted({(p, m, k) for m, _ in comps for k in members}
                              | {(m, j, k) for m, _ in comps for j in support for k in support}):
            if ctx.composite_idx(x, i, y) != homsolve.composite_coordinates(
                    objs[x][1], ctx.hom_idx(x, i), ctx.hom_idx(i, y), ctx.hom_idx(x, y)):
                raise RuntimeError(f"deep check: cached composites of objects {(x, i, y)} "
                                   "disagree with their maps")
        return None

    return multiplicities


def coresolutions(ctx: DupContext) -> Iterator[tuple[int, int, list[int] | None]]:
    """(t, p, multiplicities of T's members, bars last, in T1, or None),
    projective by projective (``deep_check_projectives``), each tilting
    set once per P; T1 = coker(P -> T0), the minimal left approximation
    computed once per support (members k with Hom(P, k) nonzero) and
    tested once per key (P, components) by ``_cokernel_in_add``."""
    objs = ctx.objects()
    tilts = enumerate_tilting_dup(ctx)
    projectives = deep_check_projectives(ctx)
    bar_indices = projectives[:ctx.n]
    for p_pos, p in enumerate(projectives):
        keys: dict[tuple[int, ...], tuple[tuple[int, int], ...]] = {}
        pairs: dict[tuple[tuple[int, int], ...], list[int]] = {}
        for t_pos, t in enumerate(tilts):
            support = tuple(k for k in t.indices + tuple(bar_indices) if ctx.hom_idx(p, k))
            if support not in keys:
                comps = homsolve.injective_approximation(
                    objs[p][1], [ctx.hom_idx(p, k) for k in support],
                    lambda a, b: ctx.radical_idx(p, support[a], support[b]))
                keys[support] = tuple((support[i], homsolve.basis_position(
                    ctx.hom_idx(p, support[i]), h)) for i, h in comps)
            pairs.setdefault(keys[support], []).append(t_pos)
        for key, t_positions in pairs.items():                # one key's caches at a time
            in_add = _cokernel_in_add(ctx, p, key)
            for t_pos in t_positions:
                yield t_pos, p_pos, in_add(list(tilts[t_pos].indices) + bar_indices)


def deep_check_coresolution(ctx: DupContext) -> dict:
    """For each tilting set T and projective P, 0 -> P -> T0 -> T1 -> 0
    with T0, T1 in add T (bar projectives included), by ``coresolutions``,
    as a ``tilt_a.verdict`` whose counterexamples come in (T, P) order."""
    objs = ctx.objects()
    tilts = enumerate_tilting_dup(ctx)
    projectives = deep_check_projectives(ctx)
    failed = sorted((t, p) for t, p, mults in coresolutions(ctx) if mults is None)
    return tilt_a.verdict(
        [f"{tilts[t].label()} / {objs[projectives[p]][0]}: cokernel not in add T"
         for t, p in failed],
        {"sequences_checked": len(tilts) * len(projectives)})
