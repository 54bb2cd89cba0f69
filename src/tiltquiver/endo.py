"""Endomorphism algebras of tilting modules as structure-constant algebras.

Given pairwise hom-orthogonal-enough summands T_1, ..., T_r (each with a
one-dimensional endomorphism ring), the endomorphism algebra of their
sum is presented by structure constants on the union of hom bases, with
the product of two morphisms being "first, then second" — so that the
functor Hom(T, -) lands in *left* modules: an algebra element x acts on
a family of morphisms by precomposition.  The constants are coordinates
of composites in the Hom bases, read per triple of summands; over the
duplicated algebra they come from ``DupContext.composite_idx``, so each
triple of objects is composed once per context, not once per algebra.

The simples of such an algebra are resolved in free coordinates
(``simple_resolution``): each syzygy is a subspace of the projective
before it, and no module is built.  The checker of interest bounds the
global dimension of every endomorphism algebra arising from the
duplicated-algebra tilting modules by three.  Left modules (``BMod``)
are slot-graded, one slot per summand and one action matrix per
non-identity basis morphism, so :mod:`tiltquiver.homsolve` resolves
them too: Hom(T, m) for ``hom_pd_bound``, and the simples as the
reference route.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from . import dup, homsolve, tilt_a
from .exactlin import Rat, RatMatrix, SparseEchelon, rref_rows, sparse_row
from .homsolve import SlotMap, SlotModule, projective_resolution


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
    product x*y = (y after x) in the basis, as a sparse coefficient map
    (ints where integral).
    """

    def __init__(self, summands: Sequence[SlotModule],
                 elements: list[AlgebraElement],
                 idempotents: list[int],
                 pair_basis: dict[tuple[int, int], list[int]],
                 table: dict[tuple[int, int], dict[int, Rat]]):
        self.summands = list(summands)
        self.elements = elements
        self.idempotents = idempotents
        self.pair_basis = pair_basis
        self.table = table
        self.projectives: dict[int, BMod] = {}  # regular_projective, shared
        # the basis of Be_s: every morphism h: T_j -> T_s, at slot j
        self.column = {s: [h for h, el in enumerate(elements) if el.dst == s]
                       for s in range(len(self.summands))}

    @property
    def dimension(self) -> int:
        return len(self.elements)

    def multiply(self, x: int, y: int) -> dict[int, Rat]:
        """Product of two basis elements, sparse over the basis."""
        ex, ey = self.elements[x], self.elements[y]
        if ex.dst != ey.src:
            return {}
        return self.table[(x, y)]


def structure_algebra(
    summands: Sequence[SlotModule],
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
    return them (ints where integral); the table keeps them as they come.
    Coordinates that do not fit the bases raise ``RuntimeError``.
    """
    r = len(summands)
    elements: list[AlgebraElement] = []
    idempotents: list[int] = []
    pair_basis: dict[tuple[int, int], list[int]] = {}
    for i in range(r):
        for j in range(r):
            if i == j:
                if len(homs[(i, i)]) != 1:
                    raise ValueError(
                        f"summand {i} has endomorphism ring of dimension "
                        f"{len(homs[(i, i)])}, expected 1"
                    )
                e = homs[(i, i)][0]               # lam * identity: End is k
                s = next(s for s in summands[i].slot_keys if summands[i].dims[s])
                if e.blocks[s][0, 0] != 1:
                    raise RuntimeError(f"the Hom basis of End(summand {i}) is not the identity")
                pair_basis[(i, i)] = [len(elements)]
                idempotents.append(len(elements))
                elements.append(AlgebraElement(i, i, e))
                continue
            pair_basis[(i, j)] = []
            for h in homs[(i, j)]:
                pair_basis[(i, j)].append(len(elements))
                elements.append(AlgebraElement(i, j, h))
    table: dict[tuple[int, int], dict[int, Rat]] = {}
    for (a, b), xs in pair_basis.items():
        for c in range(r):
            ys, zs = pair_basis[(b, c)], pair_basis[(a, c)]
            if a == b or b == c:                  # x or y is an idempotent
                table.update(((x, y), {y if a == b else x: 1})
                             for x in xs for y in ys)
            elif xs and ys:
                coords = composites(a, b, c)      # x then y
                if [len(row) for row in coords] != [len(ys)] * len(xs) or any(
                        len(cs) != len(zs) for row in coords for cs in row):
                    raise RuntimeError(f"composite coordinates of summands {(a, b, c)} "
                                       "do not fit their Hom bases")
                table.update(((x, y), {z: v for z, v in zip(zs, cs) if v})
                             for x, row in zip(xs, coords) for y, cs in zip(ys, row))
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
        self.action = {e: action[e] for e in self._labels()}  # in element order
        for e, m in self.action.items():
            el = self.algebra.elements[e]
            want = (self.dims[el.src], self.dims[el.dst])
            if m.shape != want:
                raise ValueError(f"element {e}: action shape {m.shape}, expected {want}")

    def _labels(self) -> list[int]:
        idem = set(self.algebra.idempotents)
        return [e for e in range(self.algebra.dimension) if e not in idem]

    def struct(self) -> dict[int, RatMatrix]:
        return self.action

    def label_ends(self, label: int) -> tuple[int, int]:
        el = self.algebra.elements[label]
        return el.dst, el.src

    def _rebuild(self, dims, struct) -> "BMod":
        return BMod(self.algebra, dict(dims), dict(struct))

    def __repr__(self) -> str:
        return f"BMod{tuple(self.dims[s] for s in self.slot_keys)}"

    # -- hook for covers --------------------------------------------------

    def projective_for_slot(self, s: int) -> tuple["BMod", dict[int, list[tuple[int, ...]]]]:
        """Be_s, built once per algebra and shared (callers must not
        mutate it), with its basis words: the basis morphisms T_j -> T_s,
        the idempotent as the empty word."""
        alg = self.algebra
        idem = set(alg.idempotents)
        if s not in alg.projectives:
            alg.projectives[s] = regular_projective(alg, s)
        return alg.projectives[s], {
            j: [() if e in idem else (e,) for e in alg.pair_basis[(j, s)]]
            for j in self.slot_keys}


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
    dims = {i: len(homs[i]) for i in range(r)}
    action: dict[int, RatMatrix] = {}
    idem = set(alg.idempotents)
    for x, ex in enumerate(alg.elements):
        if x in idem:
            continue
        mat = RatMatrix.zeros(dims[ex.src], dims[ex.dst])
        comps = [sparse_row((h @ ex.hom).vec()) for h in homs[ex.dst]]  # T_src -> m
        for col, coords in enumerate(homsolve.basis_coordinates(homs[ex.src], comps)):
            for row, c in enumerate(coords):
                mat[row, col] = c
        action[x] = mat
    return BMod(alg, dims, action)


# ---------------------------------------------------------------------------
# resolutions and global dimension


def _apply(cols: dict[int, dict[int, Rat]], v: dict[int, Rat]) -> dict[int, Rat]:
    """The image of a sparse vector under the map with sparse columns ``cols``."""
    out: dict[int, Rat] = {}
    for f, c in v.items():
        for k, d in cols[f].items():
            out[k] = out.get(k, 0) + c * d
    return out


def simple_resolution(alg: StructureAlgebra, i: int) -> list[list[int]] | None:
    """``homsolve.projective_resolution(simple_module(alg, i))``, computed
    in free coordinates without building a module.

    Omega^1 = rad P_i, and each later syzygy, is a list of sparse vectors
    in the free module F, the sum of the P_s = Be_s over ``tags``: the
    basis vector h: T_j -> T_s of the g-th summand, at slot j, is column
    g * dim B + h, and x: T_a -> T_b sends it to x*h (``alg.table``).  A
    syzygy is the kernel of the cover ``cols`` before it.  Each step
    checks that this cover kills the syzygy's radical images, takes their
    greedy complement as top generators, and checks that the new cover
    is onto (by rank) and kills the next syzygy.
    """
    idem, dim = set(alg.idempotents), alg.dimension
    tags, steps = [i], [[i]]
    cols = {h: {0: 1} if h in idem else {} for h in alg.column[i]}      # P_i -> S_i
    syzygy = [{h: 1} for h in alg.column[i] if h not in idem]
    for _ in range(homsolve._RESOLUTION_CAP):
        if not syzygy:
            return steps
        images: dict[tuple[int, int], dict[int, Rat]] = {}
        top, slots = SparseEchelon(len(tags) * dim), []
        for t, v in enumerate(syzygy):
            slots.append(alg.elements[min(v) % dim].src)
            for x in alg.column[slots[t]]:
                if x in idem:
                    continue
                out = images[(x, t)] = {}
                for k, c in v.items():
                    g, h = divmod(k, dim)
                    for z, d in alg.table[(x, h)].items():
                        out[g * dim + z] = out.get(g * dim + z, 0) + c * d
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
        # kernel_from_rref's canonical basis, sparse and over cols alone
        pivot_set = set(pivots)
        kernel = {f: {f: 1} for f in cols if f not in pivot_set}
        for row, p in zip(echelon, pivots):
            for f, c in row.items():
                if f != p:
                    kernel[f][p] = -c
        syzygy = list(kernel.values())
        if any(any(_apply(cols, v).values()) for v in syzygy):
            raise RuntimeError(f"the cover of a syzygy of simple {i} misses its kernel")
    return None if syzygy else steps


def global_dimension(alg: StructureAlgebra) -> int:
    """Max projective dimension of the simples (raises past the cap)."""
    steps = [simple_resolution(alg, i) for i in range(len(alg.summands))]
    if None in steps:
        raise RuntimeError(f"projective dimension exceeds cap {homsolve._RESOLUTION_CAP}")
    return max(len(s) - 1 for s in steps)


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
    return structure_algebra(
        mods, homs, lambda a, b, c: ctx.composite_idx(members[a], members[b], members[c])
    ), members


def verify_endo_global_dimension(ctx: dup.DupContext) -> dict:
    """Global dimension of every tilting endomorphism algebra is at most 3.

    Also checks the refinement that simples sitting over non-bar
    summands resolve in length at most 2.
    """
    tilts = dup.enumerate_tilting_dup(ctx)
    violations: list[str] = []
    gldims: list[int] = []
    for t in tilts:
        alg, members = endo_algebra(ctx, t)
        worst = 0
        for i in range(len(alg.summands)):
            steps = simple_resolution(alg, i)
            label = str(ctx.objects()[members[i]][0])
            if steps is None:
                violations.append(
                    f"{t.label()}: simple over {label} does not resolve "
                    f"within {homsolve._RESOLUTION_CAP} steps"
                )
                continue
            pd = len(steps) - 1
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


def hom_pd_bound(ctx: dup.DupContext) -> dict:
    """pd of Hom(T, m) over End(T) never exceeds pd of m, for every
    tilting module T and every object m generated by its summands; the
    pd of m is read off the context's cached ``resolution``."""
    violations: list[str] = []
    checked = 0
    for t in dup.enumerate_tilting_dup(ctx):
        alg, _ = endo_algebra(ctx, t)
        for k, (pid, m) in enumerate(ctx.objects()):
            try:
                bm = b_module(alg, m)
            except ValueError:
                continue                      # not generated: out of scope
            checked += 1
            steps = projective_resolution(bm)
            upstairs = None if steps is None else len(steps) - 1
            downstairs = len(ctx.resolution(k)) - 1
            if upstairs is None or upstairs > downstairs:
                violations.append(
                    f"{t.label()}: pd Hom(T, {pid}) = {upstairs} exceeds {downstairs}"
                )
    return {
        "status": "pass" if not violations else "violation",
        "stats": {"modules_checked": checked},
        "counterexamples": violations,
    }
