"""Modules over the path algebra of an acyclic quiver.

A representation assigns a rational vector space to every vertex and a
matrix to every arrow: a ``homsolve.Rep``, the one module class, over
the quiver's ``layout`` (slots = vertices, labels = arrow ids).
Conventions, fixed once and used everywhere: paths act on the left, a
path (a1, a2, ...) applies a1 first, the projective at vertex a has
basis the paths starting at a, the injective at a is dual to the paths
ending at a.

On top of the raw data the module provides reflection functors at sinks
and sources, the translate built by composing them along a topological
order, knitting of all indecomposables (finite type, plus the
preprojective/preinjective window over the double-arrow quiver),
Hom/Ext computation and minimal left approximations with their exchange
sequences.  All heavy lifting delegates to :mod:`homsolve`.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterable, NamedTuple, Sequence

from . import homsolve
from .exactlin import Rat, RatMatrix
from .homsolve import Layout, Rep, SlotMap, hom_basis
from .quiver_core import Quiver, classify, named_diagram

__all__ = [
    "Rep",
    "layout",
    "IndecId",
    "reflect",
    "tau",
    "tau_inverse",
    "indecomposables",
    "kronecker_window",
    "hom_basis",
    "ext1_dim",
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


@cache
def layout(q: Quiver) -> Layout:
    """The layout of q's representations, one per quiver: its vertices,
    and each arrow id's (source, target) in arrow order."""
    return Layout(q.vertices, {a.aid: (a.source, a.target) for a in q.arrows})


# ---------------------------------------------------------------------------
# projectives and injectives


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
    return Rep(q, layout(q), dims, maps)


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
    return Rep(q, layout(q), dims, maps)


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
    new_maps = dict(r.maps)
    if q.is_sink(v):
        ins = q.in_arrows(v)
        blocks = [r.maps[a.aid] for a in ins]
        big = (RatMatrix.hstack(blocks) if blocks
               else RatMatrix.zeros(r.dims[v], 0))
        kb = big.kernel_basis()
        K = RatMatrix(kb, cols=big.cols).transpose()
        new_dims[v] = len(kb)
        off = 0
        for a in ins:
            d = r.dims[a.source]
            new_maps[a.aid] = RatMatrix(K.data[off:off + d], cols=K.cols)
            off += d
    elif q.is_source(v):
        outs = q.out_arrows(v)
        blocks = [r.maps[a.aid] for a in outs]
        big = (RatMatrix.vstack(blocks) if blocks
               else RatMatrix.zeros(0, r.dims[v]))
        comp, proj = homsolve.cokernel_projection(big)
        new_dims[v] = len(comp)
        off = 0
        for a in outs:
            d = r.dims[a.target]
            new_maps[a.aid] = RatMatrix([row[off:off + d] for row in proj.data], cols=d)
            off += d
    else:
        raise ValueError(f"vertex {v} is neither a sink nor a source")
    return Rep(new_q, layout(new_q), new_dims, new_maps)


def _reflect_along(m: Rep, order: Iterable[int], admissible: Callable[[Quiver, int], bool]) -> Rep:
    """Reflect m at each vertex of ``order`` in turn, each one
    ``admissible`` (a sink or a source) in the quiver reached so far."""
    cur = m
    for v in order:
        if not admissible(cur.quiver, v):
            raise RuntimeError("vertex order stopped being admissible")
        cur = reflect(cur, v)
    if cur.quiver != m.quiver:
        raise RuntimeError("reflections did not return to the original quiver")
    return cur


def tau_inverse(m: Rep) -> Rep:
    """Inverse translate: reflect at sources along a topological order.

    Zero exactly on injectives (and the zero module); the quiver of the
    result is the original one again.
    """
    return _reflect_along(m, m.quiver.topological_order(), Quiver.is_source)


def tau(m: Rep) -> Rep:
    """Translate: reflect at sinks along a reversed topological order
    (zero on projectives)."""
    return _reflect_along(m, reversed(m.quiver.topological_order()), Quiver.is_sink)


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
            kind = f"{dc.kind}/{dc.name}" if dc.name else dc.kind
            raise ValueError(
                f"component of type {kind}; finite-type enumeration "
                "needs Dynkin components (use kronecker_window for the double arrow)"
            )
        expected += _ROOT_COUNTS[dc.name[0]](int(dc.name[1:]))
    found: dict[tuple[int, ...], Rep] = {}
    for v in q.vertices:
        cur = projective(q, v)
        while not cur.is_zero():
            dv = cur.dim_vector()
            if dv in found:
                raise RuntimeError(f"dimension vector collision at {dv}")
            found[dv] = cur
            cur = tau_inverse(cur)
    if len(found) != expected:
        raise RuntimeError(f"knitted {len(found)} indecomposables, expected {expected}")
    items = sorted(found.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    out = []
    for dv, rep in items:
        if homsolve.end_dim(rep) != 1:
            raise RuntimeError(f"End at {dv} not one-dimensional")
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
        if pp[k].dim_vector() != (k, k + 1):
            raise RuntimeError(f"preprojective {k} has dimension vector {pp[k].dim_vector()}")
        out.append((IndecId("pp", (k,)), pp[k]))
    pi = [injective(q, 0), injective(q, 1)]  # dims (1,0), (2,1)
    while len(pi) < w + 1:
        pi.append(tau(pi[-2]))
    for k in range(w + 1):
        if pi[k].dim_vector() != (k + 1, k):
            raise RuntimeError(f"preinjective {k} has dimension vector {pi[k].dim_vector()}")
        out.append((IndecId("pi", (k,)), pi[k]))
    for iid, rep in out:
        if homsolve.end_dim(rep) != 1:
            raise RuntimeError(f"End of {iid} not one-dimensional")
    return out


# ---------------------------------------------------------------------------
# Hom / Ext and approximations


def ext1_dim(m: Rep, n: Rep) -> int:
    """dim Ext^1 over a hereditary algebra: dim Hom minus the bilinear form.
    Ext^1(m, m) reads the End dimension ``homsolve.end_dim`` keeps on m."""
    if m.quiver != n.quiver:
        raise ValueError("representations over different quivers")
    h = homsolve.end_dim(m) if m is n else homsolve.hom_dim(m, n)
    e = h - m.quiver.euler_form(m.dim_vector(), n.dim_vector())
    if e < 0:
        raise ArithmeticError(
            f"negative Ext between {m.dim_vector()} and {n.dim_vector()}: "
            "Hom solver and bilinear form disagree"
        )
    return e


def exchange_sequence(
    x: Rep,
    m_pool: Sequence[Rep],
    hom_x: Sequence[list[SlotMap]],
    radical: Callable[[int, int], Sequence[Sequence[Rat]]],
) -> tuple[Rep, Rep] | None:
    """0 -> x -> e -> y -> 0 against the pool, or None when there is none.

    None when the approximation is zero or fails to be injective; raises
    when the cokernel is decomposable (x is then not an exchangeable
    complement in this context).  ``hom_x`` and ``radical`` are those of
    ``homsolve.exchange_sequence``.
    """
    try:
        e, y = homsolve.exchange_sequence(x, m_pool, hom_x, radical)
    except homsolve.NoExchangeSequence:
        return None
    if y.is_zero():
        return None
    if homsolve.end_dim(y) != 1:
        raise RuntimeError(f"decomposable exchange cokernel {y.dim_vector()}")
    if tuple(a + b for a, b in zip(x.dim_vector(), y.dim_vector())) != e.dim_vector():
        raise RuntimeError(f"exchange sequence at {x.dim_vector()} is not exact: "
                           f"middle term {e.dim_vector()}, cokernel {y.dim_vector()}")
    return e, y
