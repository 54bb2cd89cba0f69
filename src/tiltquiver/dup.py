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

The duplicated algebra is a bound quiver algebra, and a triple is
stored as a representation of its quiver (``_layout``): each arrow of
the quiver in both layers, ``("t", a)`` and ``("b", a)``, and one
connecting arrow ``("m", s, p)`` per maximal path ``p: s ~> e`` (the top
of DA as a bimodule), from the top space at ``e`` to the bottom space
at ``s``.  The relations are those of the dual path basis: for paths
``r: s ~> w`` and ``y: a ~> e``, the top arrows of ``y``, then the
connecting arrow of ``p``, then the bottom arrows of ``r`` act as the
dual of ``z: w ~> a`` when ``p = r z y``, and as zero when ``p`` does
not factor so.  ``validate`` checks them through the projectives.
"""

from __future__ import annotations

from functools import cache, cached_property
from typing import Callable, NamedTuple, Sequence

from . import homsolve, rep_a, tilt_a
from .exactlin import RatMatrix
from .homsolve import SlotMap
from .quiver_core import Quiver
from .rep_a import Rep

Slot = tuple[str, int]


# ---------------------------------------------------------------------------
# the duplicated quiver (one per quiver, cached)


class _Layout(NamedTuple):
    slot_keys: tuple[Slot, ...]
    ends: dict  # arrow label -> (source slot, target slot), in label order


@cache
def _layout(q: Quiver) -> _Layout:
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
    return _Layout(slot_keys, ends)


# ---------------------------------------------------------------------------
# the module class


class TripleModule(homsolve.SlotModule):
    """Module over the duplicated algebra, a representation of its quiver:
    ``dims`` maps slots ``("t", v)`` / ``("b", v)`` to dimensions and
    ``struct`` each arrow of ``_layout(quiver)``, and nothing else, to its
    matrix; the stored dict follows the layout's order."""

    def __init__(self, quiver: Quiver, dims: dict[Slot, int], struct: dict[tuple, RatMatrix]):
        self.quiver = quiver
        self._lay = lay = _layout(quiver)
        self.slot_keys = lay.slot_keys
        self.dims = {s: dims.get(s, 0) for s in lay.slot_keys}
        if len(struct) != len(lay.ends):
            raise ValueError(f"{len(struct)} structure maps for {len(lay.ends)} arrows")
        self._struct = {}
        for lab, (a, b) in lay.ends.items():
            m = self._struct[lab] = struct[lab]
            if m.shape != (self.dims[b], self.dims[a]):
                raise ValueError(
                    f"label {lab}: matrix shape {m.shape}, "
                    f"expected {(self.dims[b], self.dims[a])}"
                )

    # -- SlotModule interface ------------------------------------------

    def struct(self) -> dict:
        return self._struct

    def label_ends(self, label: tuple) -> tuple[Slot, Slot]:
        return self._lay.ends[label]

    def _rebuild(self, dims, struct) -> "TripleModule":
        return TripleModule(self.quiver, dims, struct)

    # -- convenience -----------------------------------------------------

    def validate(self) -> None:
        """Check the relations of the duplicated algebra, raising
        ``RuntimeError`` at the first slot where one fails: Hom(P_s, M) is
        the part of M_s that the relations at s kill, so they hold iff
        dim Hom(P_s, M) = dim M_s at every slot (Yoneda)."""
        for s in self.slot_keys:
            if homsolve.hom_dim(slot_projective(self.quiver, s), self) != self.dims[s]:
                raise RuntimeError(f"a relation of the duplicated algebra fails at {s}")

    def __repr__(self) -> str:
        t = tuple(self.dims[("t", v)] for v in self.quiver.vertices)
        b = tuple(self.dims[("b", v)] for v in self.quiver.vertices)
        return f"Triple(top={t}, bottom={b})"


# ---------------------------------------------------------------------------
# constructors


def _triple(q: Quiver, top: Rep | None, bot: Rep | None,
            conn: Callable[[int, tuple[str, ...], int], RatMatrix] | None = None) -> TripleModule:
    """The triple with layers ``top`` and ``bot`` (None: zero) and the
    connecting matrices ``conn(s, p, e)`` of the maximal paths p: s ~> e
    (zero without ``conn``)."""
    dims = {(layer, v): rep.dims[v] for layer, rep in (("t", top), ("b", bot))
            if rep is not None for v in q.vertices}
    struct = {}
    for lab, ((_, e), (_, s)) in _layout(q).ends.items():
        if lab[0] == "m":
            struct[lab] = (conn(s, lab[2], e) if conn else
                           RatMatrix.zeros(dims.get(("b", s), 0), dims.get(("t", e), 0)))
        else:
            rep = top if lab[0] == "t" else bot
            struct[lab] = RatMatrix.zeros(0, 0) if rep is None else rep.arrow_maps[lab[1]]
    return TripleModule(q, dims, struct)


def embed(q: Quiver, m: Rep) -> TripleModule:
    """The A-module m placed in the bottom layer, zero connecting map."""
    return _triple(q, None, m)


@cache
def slot_projective(q: Quiver, s: Slot) -> TripleModule:
    """The indecomposable projective at slot s, built once per quiver and
    shared: the embedded A-projective at a bottom slot, the bar projective
    at a top slot.  Callers must not mutate it."""
    layer, a = s
    return embed(q, rep_a.projective(q, a)) if layer == "b" else bar_projective(q, a)


def bar_projective(q: Quiver, a: int) -> TripleModule:
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
    at b, solved once per quiver and shared: callers must not mutate it."""
    return homsolve.hom_basis(*(slot_projective(q, ("t", q.vertices[k])) for k in (a, b)))


def _bar_cokernel(q: Quiver, m: Rep) -> TripleModule:
    """The cokernel of the minimal left approximation of the embedded m by
    the bar projectives; ``homsolve.NoExchangeSequence`` if there is none."""
    x = embed(q, m)
    bars = [slot_projective(q, ("t", a)) for a in q.vertices]
    hom_x = [homsolve.hom_basis(x, b) for b in bars]
    return homsolve.exchange_sequence(x, bars, hom_x, lambda a, b: homsolve.radical_coordinates(
        x, hom_x[a], _bar_hom(q, a, b), hom_x[b]))[1]


def shifted_module(q: Quiver, i: int) -> TripleModule:
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


class DupContext:
    """Canonical data of a duplicated path algebra, with hom/ext caches."""

    def __init__(self, quiver: Quiver) -> None:
        self.quiver = quiver
        self.n = len(quiver.vertices)
        self._pool: list[tuple[DupPoolId, TripleModule]] | None = None
        self._a_pool: tilt_a.Pool | None = None
        self._objects: list[tuple[DupPoolId, TripleModule]] | None = None
        self._hom: dict[tuple[int, int], list[SlotMap]] = {}
        self._ext: dict[tuple[int, int], int] = {}
        self._radical: dict[tuple[int, int, int], tuple] = {}
        self._composites: dict[tuple[int, int, int], tuple] = {}
        self._shared: dict[tuple, tuple] = {}  # one copy of each coordinate value
        self._rules_checked = False
        self._tiltings: list[tilt_a.Tilting] | None = None

    # -- pool ---------------------------------------------------------------

    def pool(self) -> list[tuple[DupPoolId, TripleModule]]:
        """Candidate non-bar summands: embedded indecomposables + shifts."""
        if self._pool is None:
            q = self.quiver
            # the embedded members keep the classical pool's indices, so its
            # dims and Euler-form Ext^1 table index them directly
            apool = self._a_pool = tilt_a._dynkin_pool(q)
            items: list[tuple[DupPoolId, TripleModule]] = [
                (DupPoolId("E", iid), embed(q, rep))
                for iid, rep in zip(apool.ids, apool.reps)]
            for v in q.vertices:
                items.append((DupPoolId("W", v), shifted_module(q, v)))
            self._pool = items
            self._ids = [pid for pid, _ in items]
        return self._pool

    def objects(self) -> list[tuple[DupPoolId, TripleModule]]:
        """Pool plus the bar projectives (global hom-cache index space)."""
        if self._objects is None:
            self._objects = self.pool() + [
                (DupPoolId("B", v), slot_projective(self.quiver, ("t", v)))
                for v in self.quiver.vertices
            ]
        return self._objects

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

    def hom_idx(self, i: int, j: int) -> list[SlotMap]:
        got = self._hom.get((i, j))
        if got is None:
            objs = self.objects()
            got = homsolve.hom_basis(objs[i][1], objs[j][1])
            self._hom[(i, j)] = got
        return got

    def radical_idx(self, x: int, j: int, i: int) -> tuple:
        """``homsolve.radical_coordinates`` of the composites x -> j -> i,
        in the cached basis ``hom_idx(x, i)`` (cached)."""
        key = (x, j, i)
        got = self._radical.get(key)
        if got is None:
            got = homsolve.radical_coordinates(
                self.objects()[x][1], self.hom_idx(x, j), self.hom_idx(j, i),
                self.hom_idx(x, i))
            got = self._radical[key] = self._shared.setdefault(got, got)
        return got

    def composite_idx(self, x: int, i: int, y: int) -> tuple:
        """``homsolve.composite_coordinates`` of the composites
        x -> i -> y over the cached bases, in ``hom_idx(x, y)`` (cached)."""
        key = (x, i, y)
        got = self._composites.get(key)
        if got is None:
            got = homsolve.composite_coordinates(
                self.objects()[x][1], self.hom_idx(x, i), self.hom_idx(i, y),
                self.hom_idx(x, y))
            got = self._composites[key] = self._shared.setdefault(got, got)
        return got

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
        itself: L is the top and delta = 0, which gives 0.
        """
        got = self._ext.get((i, j))
        if got is not None:
            return got
        objs = self.objects()
        pid, M = objs[i]
        N = objs[j][1]
        vs = self.quiver.vertices
        layer = "b" if pid.kind == "E" else "t"
        val = len(self.hom_idx(i, j)) - self.quiver.euler_form(
            [M.dims[(layer, v)] for v in vs], [N.dims[(layer, v)] for v in vs])
        if pid.kind == "W":
            val += N.dims[("b", pid.key)]
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
    def table(self) -> list[frozenset[int]]:
        return tilt_a.compatibility_table(self.pool_size(), self.compatible)

    def validate_rules(self) -> None:
        """Cross-check every predicted Ext vanishing against the solver."""
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
        dims = [m.dims_key() for _, m in ctx.pool()]
        ctx._tiltings = [tilt_a.make_tilting(c, ids, dims)
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
    Krull-Schmidt that puts E in the part's additive closure, and it is
    checked per arc.  So is dim Ext^1(y, x) = 1, which gives every
    non-split extension of y by x, the arc's own included, the same
    middle term (Happel-Unger).
    Parts without exactly two completions are listed in ``defects``.
    """
    tilts = enumerate_tilting_dup(ctx)
    ids = ctx.pool_ids()
    objs = ctx.objects()
    bar_indices = list(range(ctx.pool_size(), ctx.pool_size() + ctx.n))
    pairs: dict[tuple[int, int], tuple[tuple[int, ...], frozenset[int]]] = {}

    def certify(x: int, y: int, rest: tuple[int, ...]) -> tuple[int, ...]:
        members = list(rest) + bar_indices
        ext = ctx.ext1_idx(y, x)
        if ext != 1:
            raise RuntimeError(f"Ext^1({ids[y]}, {ids[x]}) has dimension {ext}, not 1")
        got = pairs.get((x, y))
        if got is None:
            cert = homsolve.certify_exchange(
                objs[x][1], [objs[k][1] for k in members], objs[y][1],
                hom_x=[ctx.hom_idx(x, k) for k in members],
                hom_y=[ctx.hom_idx(k, y) for k in members],
                radical=lambda a, b: ctx.radical_idx(x, members[a], members[b]),
                composites=lambda a: ctx.composite_idx(x, members[a], y))
            if cert is None:
                raise RuntimeError(f"exchange cokernel at {ids[x]} is not the expected "
                                   f"complement {ids[y]}")
            got = pairs[(x, y)] = (tuple(cert),
                                   frozenset(members[i] for i, _ in cert.components))
        e_dims, summands = got
        if not summands.issubset(members):
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
    """The classical exchange graph sits inside the duplicated one.

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
    return {
        "status": "pass" if not violations else "violation",
        "stats": {
            "classical_vertices": len(kA.tiltings),
            "classical_arcs": len(kA.arcs),
            "dup_vertices": len(dup.tiltings),
            "dup_arcs": len(dup.arcs),
            "embedded_vertices": len(embedded_vertices),
        },
        "counterexamples": violations,
    }


def verify_regularity(ctx: DupContext) -> dict:
    """Every vertex of the duplicated exchange graph has total degree n,
    and the graph is connected."""
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
    return {
        "status": "pass" if not violations else "violation",
        "stats": {
            "vertices": len(dup.tiltings),
            "arcs": len(dup.arcs),
            "degree": n,
            "connected": connected,
        },
        "counterexamples": violations,
    }


def verify_shift_completion(ctx: DupContext) -> dict:
    """Shift completion criterion, solver-checked.

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
    return {
        "status": "pass" if not violations else "violation",
        "stats": {
            "almost_complete_parts": len(parts),
            "checked_completions": checked,
        },
        "counterexamples": violations,
    }


# ---------------------------------------------------------------------------
# deep check: every projective coresolves in add of each tilting module


def _add_lookups(ctx: DupContext, c: TripleModule) -> tuple[
        Callable[[int], list[SlotMap]], Callable[[int, int], tuple]]:
    """The two lookups ``_decompose_in_add`` reads for c, keyed by object
    index and solved once each: the Hom basis of Hom(c, object k), and
    the ``radical_coordinates`` of the composites c -> k_a -> k_b in
    the basis of Hom(c, k_b)."""
    objs = ctx.objects()

    @cache
    def hom(k: int) -> list[SlotMap]:
        return homsolve.hom_basis(c, objs[k][1])

    @cache
    def radical(a: int, b: int) -> tuple:
        return homsolve.radical_coordinates(c, hom(a), ctx.hom_idx(a, b), hom(b))

    return hom, radical


def _decompose_in_add(ctx: DupContext, c: TripleModule, member_indices: Sequence[int],
                      hom: Callable[[int], list[SlotMap]],
                      radical: Callable[[int, int], tuple]) -> list[int] | None:
    """Multiplicities making c isomorphic to a sum of the given objects,
    or None when c is not in their additive closure; ``hom`` and
    ``radical`` are c's lookups by object index (``_add_lookups``).

    c lies in add T iff its minimal left add(T)-approximation c -> E is
    an isomorphism (Auslander-Smalo), that is, injective at every slot
    with dim E = dim c; the multiplicities are its component counts per
    member.
    """
    mults = [0] * len(member_indices)
    if c.is_zero():
        return mults
    try:
        comps = homsolve.injective_approximation(
            c, [hom(k) for k in member_indices],
            lambda a, b: radical(member_indices[a], member_indices[b]))
    except homsolve.NoExchangeSequence:
        return None
    for i, _ in comps:
        mults[i] += 1
    objs = ctx.objects()
    e_dims = tuple(sum(objs[member_indices[i]][1].dims[s] for i, _ in comps)
                   for s in c.slot_keys)
    return mults if e_dims == c.dims_key() else None


def deep_check_coresolution(ctx: DupContext) -> dict:
    """For each tilting set T and each projective P: a short exact
    sequence 0 -> P -> T0 -> T1 -> 0 with both middle terms in add T
    (bar projectives included), built from the minimal left
    approximation of P.

    The approximation P -> T0 is computed for every pair, from the
    cached Hom bases and ``radical_idx``; its components are cached
    basis maps, so (P, the object index and basis position of each
    component) determines the map, and its cokernel T1 is built once per
    such key, with T1's ``_add_lookups``.  Every pair then decides T1 in
    add T on its own.  The loop runs projective by projective, gathers
    the pairs of each key and drops a cokernel once its pairs are
    decided, so one cokernel's lookups are held at a time;
    counterexamples come in (T, P) order.
    """
    objs = ctx.objects()
    tilts = enumerate_tilting_dup(ctx)
    bar_indices = list(range(ctx.pool_size(), ctx.pool_size() + ctx.n))
    projectives = bar_indices + ctx.embedded_projective_indices()
    failed: list[tuple[int, int]] = []
    for p_pos, p_idx in enumerate(projectives):
        p = objs[p_idx][1]
        # key -> (members and approximation of its first pair, its pairs)
        shared: dict[tuple, tuple[list[int], list, list[int]]] = {}
        for t_pos, t in enumerate(tilts):
            members = list(t.indices) + bar_indices
            comps = homsolve.injective_approximation(
                p, [ctx.hom_idx(p_idx, k) for k in members],
                lambda a, b: ctx.radical_idx(p_idx, members[a], members[b]))
            key = (p_idx, tuple((members[i], homsolve.basis_position(
                ctx.hom_idx(p_idx, members[i]), h)) for i, h in comps))
            shared.setdefault(key, (members, comps, []))[2].append(t_pos)
        for members, comps, t_positions in shared.values():
            _, f = homsolve.approximation_map(p, [objs[k][1] for k in members], comps)
            y, _ = homsolve.cokernel(f)
            hom, radical = _add_lookups(ctx, y)
            failed.extend((t_pos, p_pos) for t_pos in t_positions if _decompose_in_add(
                ctx, y, list(tilts[t_pos].indices) + bar_indices, hom, radical) is None)
    return {
        "status": "pass" if not failed else "violation",
        "stats": {"sequences_checked": len(tilts) * len(projectives)},
        "counterexamples": [
            f"{tilts[t].label()} / {objs[projectives[p]][0]}: cokernel not in add T"
            for t, p in sorted(failed)],
    }
