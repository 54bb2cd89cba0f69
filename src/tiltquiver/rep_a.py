"""Modules over the path algebra of an acyclic quiver.

A representation assigns a rational vector space to every vertex and a
matrix to every arrow.  Conventions, fixed once and used everywhere:
paths act on the left, a path (a1, a2, ...) applies a1 first, the
projective at vertex a has basis the paths starting at a, the injective
at a is dual to the paths ending at a.

On top of the raw data the module provides reflection functors at sinks
and sources, the translate built by composing them along a topological
order, knitting of all indecomposables (finite type, plus the
preprojective/preinjective window over the double-arrow quiver),
Hom/Ext computation and minimal left approximations with their exchange
sequences.  All heavy lifting delegates to :mod:`homsolve`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from . import homsolve
from .exactlin import RatMatrix
from .homsolve import SlotMap, hom_basis
from .quiver_core import Quiver, classify, named_diagram

__all__ = [
    "Rep",
    "IndecId",
    "canonical_modules",
    "reflect",
    "tau",
    "tau_inverse",
    "indecomposables",
    "kronecker_window",
    "hom_basis",
    "hom_dim",
    "ext1_dim",
    "minimal_left_approx",
    "exchange_sequence",
]


class IndecId(NamedTuple):
    """Canonical identifier: ("dyn", dimvec) or ("pp"/"pi", orbit index)."""

    kind: str
    key: tuple

    def __str__(self) -> str:
        if self.kind == "dyn":
            return "(" + ",".join(str(x) for x in self.key) + ")"
        if self.kind == "pp":
            return f"P{self.key[0]}"
        if self.kind == "pi":
            return f"I{self.key[0]}"
        raise ValueError(f"bad IndecId kind {self.kind}")


class Rep(homsolve.SlotModule):
    """Representation: slots = vertices, labels = arrow ids."""

    def __init__(self, quiver: Quiver, dims: Mapping[int, int] | Sequence[int],
                 arrow_maps: Mapping[str, RatMatrix]):
        self.quiver = quiver
        dv = quiver.dimvec(dims)
        self.slot_keys = quiver.vertices
        self.dims = {v: dv[i] for i, v in enumerate(quiver.vertices)}
        self.arrow_maps: dict[str, RatMatrix] = {}
        for a in quiver.arrows:
            m = arrow_maps[a.aid]
            want = (self.dims[a.target], self.dims[a.source])
            if m.shape != want:
                raise ValueError(f"arrow {a.aid}: map shape {m.shape}, expected {want}")
            self.arrow_maps[a.aid] = m

    # -- SlotModule interface ------------------------------------------

    def struct(self) -> dict[str, RatMatrix]:
        return self.arrow_maps

    def label_ends(self, label: str) -> tuple[int, int]:
        a = self.quiver.arrows[self.quiver.arrow_pos[label]]
        return a.source, a.target

    def solver_labels(self) -> tuple[str, ...]:
        return tuple(a.aid for a in self.quiver.arrows)

    def radical_labels(self) -> tuple[str, ...]:
        return self.solver_labels()

    def _rebuild(self, dims, struct) -> "Rep":
        return Rep(self.quiver, dims, struct)

    # -- convenience -----------------------------------------------------

    def dim_vector(self) -> tuple[int, ...]:
        return self.dims_key()

    def path_action(self, start: int, path: tuple[str, ...]) -> RatMatrix:
        """Composite matrix of a path out of ``start`` (identity if empty)."""
        m = RatMatrix.identity(self.dims[start])
        for aid in path:
            m = self.arrow_maps[aid] @ m
        return m

    def __repr__(self) -> str:
        return f"Rep{self.dim_vector()}"

    # -- hooks for covers / envelopes ------------------------------------

    def projective_for_slot(self, v: int) -> "Rep":
        return projective(self.quiver, v)

    def yoneda_from_generator(self, v: int, vec: Sequence[Fraction], m: "Rep") -> SlotMap:
        """Morphism P_v -> m sending the trivial-path generator to vec."""
        blocks: dict[int, RatMatrix] = {}
        for w in self.quiver.vertices:
            cols = [m.path_action(v, p).apply(vec) for p in self.quiver.paths_between(v, w)]
            blocks[w] = (RatMatrix(cols, cols=m.dims[w]).transpose()
                         if cols else RatMatrix.zeros(m.dims[w], 0))
        return SlotMap(projective(self.quiver, v), m, blocks)

    def injective_for_slot(self, v: int) -> "Rep":
        return injective(self.quiver, v)

    def coyoneda_from_functional(self, v: int, functional: Sequence[Fraction], m: "Rep") -> SlotMap:
        """Morphism m -> I_v induced by a functional on the slot at v."""
        zeta = RatMatrix([list(functional)], cols=m.dims[v])
        blocks: dict[int, RatMatrix] = {}
        for w in self.quiver.vertices:
            rows = [
                (zeta @ m.path_action(w, p)).data[0]
                for p in self.quiver.paths_between(w, v)
            ]
            blocks[w] = RatMatrix(rows, cols=m.dims[w])
        return SlotMap(m, injective(self.quiver, v), blocks)


# ---------------------------------------------------------------------------
# canonical modules


def simple(q: Quiver, a: int) -> Rep:
    dims = {v: (1 if v == a else 0) for v in q.vertices}
    maps = {
        arr.aid: RatMatrix.zeros(dims[arr.target], dims[arr.source])
        for arr in q.arrows
    }
    return Rep(q, dims, maps)


def projective(q: Quiver, a: int) -> Rep:
    """P_a: basis at w = paths a ~> w; an arrow appends itself to a path."""
    paths = {w: q.paths_between(a, w) for w in q.vertices}
    dims = {w: len(paths[w]) for w in q.vertices}
    maps: dict[str, RatMatrix] = {}
    for arr in q.arrows:
        src_paths, dst_paths = paths[arr.source], paths[arr.target]
        idx = {p: i for i, p in enumerate(dst_paths)}
        m = RatMatrix.zeros(len(dst_paths), len(src_paths))
        for j, p in enumerate(src_paths):
            m[idx[p + (arr.aid,)], j] = 1
        maps[arr.aid] = m
    return Rep(q, dims, maps)


def injective(q: Quiver, a: int) -> Rep:
    """I_a: basis at w dual to paths w ~> a; arrows act by precomposition."""
    paths = {w: q.paths_between(w, a) for w in q.vertices}
    dims = {w: len(paths[w]) for w in q.vertices}
    maps: dict[str, RatMatrix] = {}
    for arr in q.arrows:
        src_paths, dst_paths = paths[arr.source], paths[arr.target]
        src_idx = {p: i for i, p in enumerate(src_paths)}
        m = RatMatrix.zeros(len(dst_paths), len(src_paths))
        # (arrow . f)(p) = f(arrow then p): row p gets the coefficient of
        # the dual basis vector at (arrow,) + p
        for i, p in enumerate(dst_paths):
            m[i, src_idx[(arr.aid,) + p]] = 1
        maps[arr.aid] = m
    return Rep(q, dims, maps)


def canonical_modules(q: Quiver) -> tuple[dict[int, Rep], dict[int, Rep], dict[int, Rep]]:
    """(projectives, injectives, simples), each indexed by vertex."""
    return (
        {v: projective(q, v) for v in q.vertices},
        {v: injective(q, v) for v in q.vertices},
        {v: simple(q, v) for v in q.vertices},
    )


# ---------------------------------------------------------------------------
# reflection functors and the translate


def reflect(r: Rep, v: int) -> Rep:
    """Reflection functor at a sink (kernel flavor) or source (cokernel).

    Returns a representation over the quiver with all arrows at v
    reversed.  Kills the simple at v; on everything else indecomposable
    the dimension vector transforms by the simple reflection at v.
    """
    q = r.quiver
    new_q = q.reverse_at(v)
    new_dims = dict(r.dims)
    new_maps = dict(r.arrow_maps)
    if q.is_sink(v):
        ins = q.in_arrows(v)
        blocks = [r.arrow_maps[a.aid] for a in ins]
        big = (RatMatrix.hstack(blocks) if blocks
               else RatMatrix.zeros(r.dims[v], 0))
        kb = big.kernel_basis()
        K = (RatMatrix(kb, cols=big.cols).transpose()
             if kb else RatMatrix.zeros(big.cols, 0))
        new_dims[v] = len(kb)
        off = 0
        for a in ins:
            d = r.dims[a.source]
            new_maps[a.aid] = RatMatrix(K.data[off:off + d], cols=K.cols)
            off += d
    elif q.is_source(v):
        outs = q.out_arrows(v)
        blocks = [r.arrow_maps[a.aid] for a in outs]
        big = (RatMatrix.vstack(blocks) if blocks
               else RatMatrix.zeros(0, r.dims[v]))
        img = big.image_basis()
        comp, inv = homsolve.complete_basis(img, big.rows)
        new_dims[v] = len(comp)
        proj = RatMatrix(inv.data[len(img):], cols=big.rows)
        off = 0
        for a in outs:
            d = r.dims[a.target]
            new_maps[a.aid] = RatMatrix([row[off:off + d] for row in proj.data], cols=d)
            off += d
    else:
        raise ValueError(f"vertex {v} is neither a sink nor a source")
    return Rep(new_q, new_dims, new_maps)


def tau_inverse(m: Rep) -> Rep:
    """Inverse translate: reflect at sources along a topological order.

    Zero exactly on injectives (and the zero module); the quiver of the
    result is the original one again.
    """
    cur = m
    for v in m.quiver.topological_order():
        assert cur.quiver.is_source(v), "vertex order stopped being admissible"
        cur = reflect(cur, v)
    assert cur.quiver == m.quiver
    return cur


def tau(m: Rep, direction: str = "forward") -> Rep:
    """Translate (zero on projectives); direction="inverse" delegates."""
    if direction == "inverse":
        return tau_inverse(m)
    if direction != "forward":
        raise ValueError(f"bad direction {direction!r}")
    cur = m
    for v in reversed(m.quiver.topological_order()):
        assert cur.quiver.is_sink(v), "vertex order stopped being admissible"
        cur = reflect(cur, v)
    assert cur.quiver == m.quiver
    return cur


# ---------------------------------------------------------------------------
# indecomposables


_ROOT_COUNTS = {"A": lambda n: n * (n + 1) // 2, "D": lambda n: n * (n - 1),
                "E": lambda n: {6: 36, 7: 63, 8: 120}[n]}


def indecomposables(q: Quiver) -> list[tuple[IndecId, Rep]]:
    """All indecomposables of a quiver whose components are Dynkin.

    Knitted by iterating the inverse translate on the projectives; each
    orbit ends at an injective.  Output sorted by (total dimension,
    dimension vector); identity = dimension vector, which is checked to
    be collision-free, and every module is checked to have a
    one-dimensional endomorphism ring.
    """
    expected = 0
    for comp in q.components():
        dc = classify(comp)
        if not dc.is_dynkin():
            raise ValueError(
                f"component of type {dc.kind}/{dc.name}; finite-type enumeration "
                "needs Dynkin components (use kronecker_window for the double arrow)"
            )
        expected += _ROOT_COUNTS[dc.name[0]](int(dc.name[1:]))
    found: dict[tuple[int, ...], Rep] = {}
    for v in q.vertices:
        cur = projective(q, v)
        while not cur.is_zero():
            dv = cur.dim_vector()
            assert dv not in found, f"dimension vector collision at {dv}"
            found[dv] = cur
            cur = tau_inverse(cur)
    assert len(found) == expected, (len(found), expected)
    items = sorted(found.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    out = []
    for dv, rep in items:
        assert homsolve.end_dim(rep) == 1, f"End at {dv} not one-dimensional"
        out.append((IndecId("dyn", dv), rep))
    return out


def kronecker_window(w: int) -> list[tuple[IndecId, Rep]]:
    """Preprojectives and preinjectives of the double-arrow quiver.

    Index k runs 0..w on both sides: dimension vectors (k, k+1) and
    (k+1, k).  Built by iterating the translate from the projectives
    and injectives; regular modules never show up and are out of scope.
    """
    if w < 0:
        raise ValueError("window must be >= 0")
    q = named_diagram("K")
    out: list[tuple[IndecId, Rep]] = []
    pp = [projective(q, 1), projective(q, 0)]  # dims (0,1), (1,2)
    while len(pp) < w + 1:
        pp.append(tau_inverse(pp[-2]))
    for k in range(w + 1):
        assert pp[k].dim_vector() == (k, k + 1)
        out.append((IndecId("pp", (k,)), pp[k]))
    pi = [injective(q, 0), injective(q, 1)]  # dims (1,0), (2,1)
    while len(pi) < w + 1:
        pi.append(tau(pi[-2]))
    for k in range(w + 1):
        assert pi[k].dim_vector() == (k + 1, k)
        out.append((IndecId("pi", (k,)), pi[k]))
    for _, rep in out:
        assert homsolve.end_dim(rep) == 1
    return out


# ---------------------------------------------------------------------------
# Hom / Ext and approximations


def hom_dim(m: Rep, n: Rep) -> int:
    if m.quiver != n.quiver:
        raise ValueError("representations over different quivers")
    return homsolve.hom_dim(m, n)


def ext1_dim(m: Rep, n: Rep) -> int:
    """dim Ext^1 over a hereditary algebra: dim Hom minus the bilinear form."""
    h = hom_dim(m, n)
    e = h - m.quiver.euler_form(m.dim_vector(), n.dim_vector())
    if e < 0:
        raise ArithmeticError(
            f"negative Ext between {m.dim_vector()} and {n.dim_vector()}: "
            "Hom solver and bilinear form disagree"
        )
    return e


def minimal_left_approx(x: Rep, pool: Sequence[Rep]) -> tuple[Rep, SlotMap]:
    """Minimal left approximation of x into add(pool); may be zero."""
    return homsolve.approximation_map(
        x, pool, homsolve.minimal_left_approximation(x, pool))


def exchange_sequence(
    x: Rep,
    m_pool: Sequence[Rep],
    hom_x: Sequence[list[SlotMap]] | None = None,
    pool_homs: dict[tuple[int, int], list[SlotMap]] | None = None,
) -> tuple[Rep, Rep] | None:
    """0 -> x -> e -> y -> 0 against the pool, or None when there is none.

    None when the approximation is zero or fails to be injective; raises
    when the cokernel is decomposable (x is then not an exchangeable
    complement in this context).  The optional Hom caches are those of
    ``homsolve.exchange_sequence``.
    """
    try:
        e, y = homsolve.exchange_sequence(x, m_pool, hom_x=hom_x, pool_homs=pool_homs)
    except homsolve.NoExchangeSequence:
        return None
    if y.is_zero():
        return None
    if homsolve.end_dim(y) != 1:
        raise ValueError(f"decomposable exchange cokernel {y.dim_vector()}")
    if tuple(a + b for a, b in zip(x.dim_vector(), y.dim_vector())) != e.dim_vector():
        raise RuntimeError(f"exchange sequence at {x.dim_vector()} is not exact: "
                           f"middle term {e.dim_vector()}, cokernel {y.dim_vector()}")
    return e, y
