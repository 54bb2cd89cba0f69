"""Endomorphism algebras of tilting modules as structure-constant algebras.

Given pairwise hom-orthogonal-enough summands T_1, ..., T_r (each with a
one-dimensional endomorphism ring), the endomorphism algebra of their
sum is presented by structure constants on the union of hom bases, with
the product of two morphisms being "first, then second" — so that the
functor Hom(T, -) lands in *left* modules: an algebra element x acts on
a family of morphisms by precomposition.

Left modules over such an algebra are again slot-graded: one slot per
summand (the image of the corresponding identity idempotent), one
action matrix per non-identity basis morphism.  That makes the whole
homological toolbox of :mod:`tiltquiver.homsolve` available once more;
projective covers, syzygies and global dimension come for free.  The
checker of interest bounds the global dimension of every endomorphism
algebra arising from the duplicated-algebra tilting modules by three.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from . import dup, homsolve, tilt_a
from .exactlin import RatMatrix
from .homsolve import SlotMap, SlotModule


class AlgebraElement(NamedTuple):
    """A basis morphism T_src -> T_dst of the endomorphism algebra."""

    src: int
    dst: int
    hom: SlotMap


class StructureAlgebra:
    """Basic algebra with scalar corners, given by structure constants.

    ``elements`` lists the basis; positions in ``idempotents`` are the
    identity morphisms of the summands (one per summand, so the corners
    are one-dimensional by construction).  ``table[(x, y)]`` expands the
    product x*y = (y after x) in the basis, as a sparse coefficient map.
    """

    def __init__(self, summands: Sequence[SlotModule],
                 elements: list[AlgebraElement],
                 idempotents: list[int],
                 pair_basis: dict[tuple[int, int], list[int]],
                 table: dict[tuple[int, int], dict[int, Fraction]]):
        self.summands = list(summands)
        self.elements = elements
        self.idempotents = idempotents
        self.pair_basis = pair_basis
        self.table = table

    @property
    def dimension(self) -> int:
        return len(self.elements)

    def multiply(self, x: int, y: int) -> dict[int, Fraction]:
        """Product of two basis elements, sparse over the basis."""
        ex, ey = self.elements[x], self.elements[y]
        if ex.dst != ey.src:
            return {}
        return self.table[(x, y)]

    def multiply_sparse(self, a: dict[int, Fraction],
                        b: dict[int, Fraction]) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for x, cx in a.items():
            for y, cy in b.items():
                for z, cz in self.multiply(x, y).items():
                    c = out.get(z, Fraction(0)) + cx * cy * cz
                    if c:
                        out[z] = c
                    elif z in out:
                        del out[z]
        return out

    def assert_associative(self) -> None:
        dim = self.dimension
        for x in range(dim):
            for y in range(dim):
                if self.elements[x].dst != self.elements[y].src:
                    continue
                xy = self.multiply(x, y)
                for z in range(dim):
                    if self.elements[y].dst != self.elements[z].src:
                        continue
                    left = self.multiply_sparse(xy, {z: Fraction(1)})
                    right = self.multiply_sparse({x: Fraction(1)},
                                                 self.multiply(y, z))
                    assert left == right, f"associativity fails on {(x, y, z)}"

    def assert_unit(self) -> None:
        one = {e: Fraction(1) for e in self.idempotents}
        for x in range(self.dimension):
            t = {x: Fraction(1)}
            assert self.multiply_sparse(one, t) == t
            assert self.multiply_sparse(t, one) == t


def structure_algebra(
    summands: Sequence[SlotModule],
    homs: dict[tuple[int, int], list[SlotMap]] | None = None,
) -> StructureAlgebra:
    """End of a direct sum, from hom bases between the summands.

    Each summand must have a one-dimensional endomorphism ring; its hom
    basis is replaced by the exact identity so the idempotents are
    on-the-nose.  ``homs[(i, j)]`` may supply precomputed bases of
    Hom(summand_i, summand_j).
    """
    r = len(summands)
    if homs is None:
        homs = {}
    elements: list[AlgebraElement] = []
    idempotents: list[int] = []
    pair_basis: dict[tuple[int, int], list[int]] = {}
    for i in range(r):
        for j in range(r):
            if i == j:
                ends = homs.get((i, i))
                if ends is None:
                    ends = homsolve.hom_basis(summands[i], summands[i])
                if len(ends) != 1:
                    raise ValueError(
                        f"summand {i} has endomorphism ring of dimension "
                        f"{len(ends)}, expected 1"
                    )
                ident = SlotMap.identity(summands[i])
                pair_basis[(i, i)] = [len(elements)]
                idempotents.append(len(elements))
                elements.append(AlgebraElement(i, i, ident))
                continue
            basis = homs.get((i, j))
            if basis is None:
                basis = homsolve.hom_basis(summands[i], summands[j])
            pair_basis[(i, j)] = []
            for h in basis:
                pair_basis[(i, j)].append(len(elements))
                elements.append(AlgebraElement(i, j, h))
    # coordinate solvers: columns = vectorized basis of each pair block
    coord: dict[tuple[int, int], RatMatrix] = {}
    for (i, j), idxs in pair_basis.items():
        if idxs:
            cols = [elements[k].hom.vec() for k in idxs]
            coord[(i, j)] = RatMatrix(cols, cols=len(cols[0])).transpose()
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for x, ex in enumerate(elements):
        for y, ey in enumerate(elements):
            if ex.dst != ey.src:
                continue
            prod = ey.hom @ ex.hom            # x then y
            idxs = pair_basis[(ex.src, ey.dst)]
            entry: dict[int, Fraction] = {}
            if idxs:
                sol = coord[(ex.src, ey.dst)].solve(prod.vec())
                assert sol is not None, "product escaped the hom basis"
                for k, c in zip(idxs, sol):
                    if c:
                        entry[k] = c
            else:
                assert prod.is_zero()
            table[(x, y)] = entry
    return StructureAlgebra(summands, elements, idempotents, pair_basis, table)


# ---------------------------------------------------------------------------
# left modules


class BMod(homsolve.SlotModule):
    """Left module over a structure algebra: one slot per summand.

    A basis morphism x: T_a -> T_b acts by precomposition, i.e. from
    slot b to slot a; the identity idempotents are the slot grading and
    carry no stored matrix.
    """

    def __init__(self, algebra: StructureAlgebra, dims: dict[int, int],
                 action: dict[int, RatMatrix]):
        self.algebra = algebra
        self.slot_keys = tuple(range(len(algebra.summands)))
        self.dims = {s: dims.get(s, 0) for s in self.slot_keys}
        self.action = action
        for e in self._labels():
            el = self.algebra.elements[e]
            want = (self.dims[el.src], self.dims[el.dst])
            if action[e].shape != want:
                raise ValueError(f"element {e}: action shape {action[e].shape}, "
                                 f"expected {want}")

    def _labels(self) -> list[int]:
        idem = set(self.algebra.idempotents)
        return [e for e in range(self.algebra.dimension) if e not in idem]

    def struct(self) -> dict[int, RatMatrix]:
        return self.action

    def label_ends(self, label: int) -> tuple[int, int]:
        el = self.algebra.elements[label]
        return el.dst, el.src

    def solver_labels(self) -> tuple[int, ...]:
        return tuple(self._labels())

    def radical_labels(self) -> tuple[int, ...]:
        # corners are scalar, so the radical is spanned by the
        # cross-summand basis morphisms
        return tuple(self._labels())

    def _rebuild(self, dims, struct) -> "BMod":
        return BMod(self.algebra, dict(dims), dict(struct))

    def check_action(self) -> None:
        """Spot-check: acting by x then y equals acting by the product."""
        alg = self.algebra
        for x in range(alg.dimension):
            ex = alg.elements[x]
            for y in range(alg.dimension):
                ey = alg.elements[y]
                if ex.dst != ey.src:
                    continue
                got = self._act(x) @ self._act(y)
                want = RatMatrix.zeros(self.dims[ex.src], self.dims[ey.dst])
                for z, c in alg.multiply(x, y).items():
                    want = want + self._act(z).scale(c)
                assert got == want, f"action disrespects the product {(x, y)}"

    def _act(self, e: int) -> RatMatrix:
        el = self.algebra.elements[e]
        if e in self.algebra.idempotents:
            return RatMatrix.identity(self.dims[el.src])
        return self.action[e]

    def __repr__(self) -> str:
        return f"BMod{tuple(self.dims[s] for s in self.slot_keys)}"

    # -- hooks -------------------------------------------------------------

    def projective_for_slot(self, s: int) -> "BMod":
        return regular_projective(self.algebra, s)

    def yoneda_from_generator(self, s: int, vec, m: "BMod") -> SlotMap:
        alg = self.algebra
        P = regular_projective(alg, s)
        blocks: dict[int, RatMatrix] = {}
        for j in range(len(alg.summands)):
            cols = []
            for e in alg.pair_basis[(j, s)]:
                if e in alg.idempotents:
                    cols.append(list(vec))
                else:
                    cols.append(m.action[e].apply(vec))
            blocks[j] = (RatMatrix(cols, cols=m.dims[j]).transpose()
                         if cols else RatMatrix.zeros(m.dims[j], 0))
        return SlotMap(P, m, blocks)


def regular_projective(alg: StructureAlgebra, i: int) -> BMod:
    """The projective Be_i: slot j is spanned by the morphisms T_j -> T_i;
    the action matrices are read off the multiplication table."""
    dims = {j: len(alg.pair_basis[(j, i)]) for j in range(len(alg.summands))}
    action: dict[int, RatMatrix] = {}
    idem = set(alg.idempotents)
    for x, ex in enumerate(alg.elements):
        if x in idem:
            continue
        src_block = alg.pair_basis[(ex.dst, i)]
        dst_block = alg.pair_basis[(ex.src, i)]
        pos = {e: k for k, e in enumerate(dst_block)}
        m = RatMatrix.zeros(len(dst_block), len(src_block))
        for col, h in enumerate(src_block):
            for z, c in alg.multiply(x, h).items():
                m[pos[z], col] = c
        action[x] = m
    return BMod(alg, dims, action)


def simple_module(alg: StructureAlgebra, i: int) -> BMod:
    """One-dimensional module concentrated at the i-th idempotent."""
    dims = {j: (1 if j == i else 0) for j in range(len(alg.summands))}
    action: dict[int, RatMatrix] = {}
    idem = set(alg.idempotents)
    for x, ex in enumerate(alg.elements):
        if x in idem:
            continue
        action[x] = RatMatrix.zeros(dims[ex.src], dims[ex.dst])
    return BMod(alg, dims, action)


def b_module(alg: StructureAlgebra, m: SlotModule) -> BMod:
    """Hom(T, m) as a left module over End(T): slot i = Hom(T_i, m).

    Requires m to be generated by the summands: the joint evaluation
    map from a sum of summand copies onto m must be surjective.
    """
    r = len(alg.summands)
    homs = [homsolve.hom_basis(alg.summands[i], m) for i in range(r)]
    # generation check, slot by slot of the underlying module
    for s in m.slot_keys:
        cols: list[list[Fraction]] = []
        for basis in homs:
            for h in basis:
                cols.extend(h.blocks[s].transpose().data)
        have = RatMatrix(cols, cols=m.dims[s]).rank() if cols else 0
        if have != m.dims[s]:
            raise ValueError("module is not generated by the summands")
    coord: dict[int, RatMatrix] = {}
    for i in range(r):
        if homs[i]:
            cols = [h.vec() for h in homs[i]]
            coord[i] = RatMatrix(cols, cols=len(cols[0])).transpose()
    dims = {i: len(homs[i]) for i in range(r)}
    action: dict[int, RatMatrix] = {}
    idem = set(alg.idempotents)
    for x, ex in enumerate(alg.elements):
        if x in idem:
            continue
        mat = RatMatrix.zeros(dims[ex.src], dims[ex.dst])
        for col, h in enumerate(homs[ex.dst]):
            comp = h @ ex.hom              # T_src -> m
            if dims[ex.src]:
                sol = coord[ex.src].solve(comp.vec())
                assert sol is not None, "composition escaped the hom basis"
                for row, c in enumerate(sol):
                    mat[row, col] = c
            else:
                assert comp.is_zero()
        action[x] = mat
    return BMod(alg, dims, action)


# ---------------------------------------------------------------------------
# resolutions and global dimension


def projective_resolution(alg: StructureAlgebra, m: BMod,
                          cap: int = 6) -> dict:
    """Minimal resolution data: cover multiplicities per step.

    Returns ``{"covers": [...], "pd": int | None}`` where each cover is
    a dict slot -> multiplicity; ``pd`` is None when the cap was hit
    before the resolution terminated.
    """
    covers: list[dict[int, int]] = []
    cur: SlotModule = m
    if cur.is_zero():
        return {"covers": [], "pd": 0}
    for _ in range(cap + 1):
        dec, cover = homsolve.projective_cover_parts(cur)
        mults: dict[int, int] = {}
        for tag in dec.tags:
            mults[tag] = mults.get(tag, 0) + 1
        covers.append(mults)
        K, _ = homsolve.kernel(cover)
        if K.is_zero():
            return {"covers": covers, "pd": len(covers) - 1}
        cur = K
    return {"covers": covers, "pd": None}


def global_dimension(alg: StructureAlgebra, cap: int = 6) -> int:
    """Max projective dimension of the simples (raises past the cap)."""
    best = 0
    for i in range(len(alg.summands)):
        res = projective_resolution(alg, simple_module(alg, i), cap=cap)
        if res["pd"] is None:
            raise RuntimeError(f"projective dimension of simple {i} exceeds {cap}")
        best = max(best, res["pd"])
    return best


# ---------------------------------------------------------------------------
# duplicated-algebra front ends


def endo_algebra(ctx: dup.DupContext,
                 t: tilt_a.Tilting) -> tuple[StructureAlgebra, list[int]]:
    """End of (tilting set + bar projectives) over the duplicated algebra.

    Returns the algebra and the global object indices of its summands
    (tilting members first, then the bar projectives).
    """
    members = list(t.indices) + list(
        range(ctx.pool_size(), ctx.pool_size() + ctx.n))
    objs = ctx.objects()
    mods = [objs[k][1] for k in members]
    homs = {(a, b): ctx.hom_idx(i, j)
            for a, i in enumerate(members) for b, j in enumerate(members)}
    return structure_algebra(mods, homs=homs), members


def verify_endo_global_dimension(ctx: dup.DupContext, cap: int = 6) -> dict:
    """Global dimension of every tilting endomorphism algebra is at most 3.

    Also checks the refinement that simples sitting over non-bar
    summands resolve in length at most 2.
    """
    if ctx.n > 3:
        raise ValueError("rank capped at 3 for the endomorphism sweep")
    tilts = dup.enumerate_tilting_dup(ctx)
    violations: list[str] = []
    gldims: list[int] = []
    for t in tilts:
        alg, members = endo_algebra(ctx, t)
        worst = 0
        for i in range(len(alg.summands)):
            res = projective_resolution(alg, simple_module(alg, i), cap=cap)
            pd = res["pd"]
            label = str(ctx.objects()[members[i]][0])
            if pd is None:
                violations.append(
                    f"{t.label()}: simple over {label} does not resolve "
                    f"within {cap} steps"
                )
                continue
            worst = max(worst, pd)
            if pd > 3:
                violations.append(
                    f"{t.label()}: simple over {label} has projective "
                    f"dimension {pd}"
                )
            if i < len(t.indices) and pd > 2:
                violations.append(
                    f"{t.label()}: simple over non-bar summand {label} has "
                    f"projective dimension {pd} > 2"
                )
        gldims.append(worst)
    return {
        "status": "pass" if not violations else "violation",
        "stats": {
            "tilting_modules": len(tilts),
            "max_global_dimension": max(gldims) if gldims else 0,
            "global_dimensions": gldims,
        },
        "counterexamples": violations,
    }


def hom_pd_bound(ctx: dup.DupContext, t: tilt_a.Tilting,
                 cap: int = 6) -> dict:
    """pd of Hom(T, m) over End(T) never exceeds pd of m, for every pool
    module generated by the summands."""
    alg, members = endo_algebra(ctx, t)
    violations: list[str] = []
    checked = 0
    for pid, m in ctx.objects():
        try:
            bm = b_module(alg, m)
        except ValueError:
            continue                      # not generated: out of scope
        checked += 1
        res = projective_resolution(alg, bm, cap=cap)
        upstairs = res["pd"]
        downstairs = dup.triple_pd(m)
        if upstairs is None or upstairs > downstairs:
            violations.append(
                f"{t.label()}: pd Hom(T, {pid}) = {upstairs} exceeds {downstairs}"
            )
    return {
        "status": "pass" if not violations else "violation",
        "stats": {"modules_checked": checked},
        "counterexamples": violations,
    }
