"""Generic homological machinery for representations of a quiver layout.

Every module in this package is a representation of a bound quiver
(Assem-Simson-Skowronski vol. 1, ch. III): one finite dimensional
rational vector space per *slot* and one matrix per *arrow label*
between slots, stored as :class:`Rep` over a shared :class:`Layout`.
Modules over the path algebra (``rep_a``: slots = vertices, labels =
arrows) and over the duplicated algebra (``dup._layout``) are the same
class on two layouts.  Everything that only depends on that shape lives
here, written once:

* morphism spaces (``hom_basis``, or ``checked_hom`` against a dimension
  known without it) and their dimensions (``hom_dim``, and ``end_dim``
  once per module) from the intertwining equations, assembled
  as sparse rows, and coordinates of maps and composites in a cached Hom
  basis, kept by object index in ``IndexCache``, which the pools of both
  exchange engines subclass (``tilt_a.Pool``, ``dup.DupContext``),
* cokernels that stay inside the category,
* minimal left approximations into an additive subcategory spanned by
  indecomposables with one-dimensional endomorphism rings, the short
  exact exchange sequence an approximation generates (into add of the
  injectives, the approximation is the injective envelope), and one
  certificate over an ``IndexCache``, ``cokernel_in_add``, that decides
  whether the cokernel of an approximation lies in add of given objects
  while building neither the middle term nor the cokernel: it certifies
  the duplicated exchange sequences and the deep check alike.

Covers, kernels and module resolutions are not needed: every object
whose Ext^1 the package reads comes with a projective presentation of
length one (``dup.DupContext.ext1_idx``), and ``endo`` resolves the
simples of End T in free coordinates.  No linear algebra happens outside
``exactlin``.  Everything is sparse, ``int`` where integral: systems,
kernel bases, coordinates and spans are ``{column: entry}`` rows, and the
maps of modules and the blocks of morphisms are ``exactlin.RatMatrix``,
whose rows of ``(column, entry)`` pairs the solvers read as they are.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence

from .exactlin import (
    Rat,
    RatMatrix,
    SparseEchelon,
    as_int_if_integral,
    kernel_from_rref,
    rref_rows,
)

Label = Hashable
Slot = Hashable


class Layout(NamedTuple):
    """The slots of a quiver's representations, in order, and each arrow
    label's (source slot, target slot), in label order; built once per
    quiver and shared by its modules."""

    slot_keys: tuple[Slot, ...]
    ends: dict[Label, tuple[Slot, Slot]]


class Rep:
    """A representation of ``layout``: ``dims`` maps each slot to its
    dimension (a slot left out is 0) and ``maps`` each arrow label l: a ->
    b, in label order, to its dims[b] x dims[a] matrix; ``quiver`` is
    what the layout was built from.  The maps' intertwining equations cut
    out Hom.  Modules are not mutated once built."""

    _columns = None  # memo of _label_columns
    _end_dim = None  # memo of end_dim

    def __init__(self, quiver, layout: Layout, dims: Mapping[Slot, int],
                 maps: Mapping[Label, RatMatrix]):
        self.quiver = quiver
        self.layout = layout
        self.slot_keys = layout.slot_keys
        self.dims = {s: dims.get(s, 0) for s in layout.slot_keys}
        ends = layout.ends
        if not dims.keys() <= self.dims.keys():
            raise ValueError(f"dimensions at slots outside the layout: {dict(dims)}")
        if maps.keys() != ends.keys():
            raise ValueError(f"labels {sorted(map(repr, maps.keys() ^ ends.keys()))} are not "
                             "both a map and an arrow of the layout")
        self.maps = {}
        for lab, (a, b) in ends.items():
            m = self.maps[lab] = maps[lab]
            if m.shape != (self.dims[b], self.dims[a]):
                raise ValueError(f"arrow {lab!r}: map shape {m.shape}, "
                                 f"expected {(self.dims[b], self.dims[a])}")

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def dim_vector(self) -> tuple[int, ...]:
        return tuple(self.dims.values())  # built in slot order

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def __repr__(self) -> str:
        return f"Rep{self.dim_vector()}"


class SlotMap:
    """Morphism of representations: one matrix per slot (dst_dim x src_dim)."""

    __slots__ = ("src", "dst", "blocks")

    def __init__(self, src: Rep, dst: Rep, blocks: dict[Slot, RatMatrix]):
        self.src = src
        self.dst = dst
        self.blocks = blocks
        for s in src.slot_keys:
            b = blocks[s]
            if b.shape != (dst.dims[s], src.dims[s]):
                raise ValueError(
                    f"block at slot {s!r} has shape {b.shape}, "
                    f"expected {(dst.dims[s], src.dims[s])}"
                )


# ---------------------------------------------------------------------------
# morphism spaces


def _label_columns(M: Rep) -> tuple[tuple[Slot, Slot, list[list[tuple[int, Rat]]]], ...]:
    """Per label, in layout order: its ends (a, b) and the nonzero
    (row, entry)s of each column of its matrix, the rows of its transpose.
    Computed once per module, as ``_hom_system`` reads them for every
    partner (modules are not mutated once built); the lists are shared,
    so callers only read them."""
    got = M._columns
    if got is None:
        ends = M.layout.ends
        got = M._columns = tuple((*ends[lab], mat.transpose().data)
                                 for lab, mat in M.maps.items())
    return got


def _hom_system(
    M: Rep, N: Rep
) -> tuple[list[dict[int, Rat]], dict[Slot, int], int]:
    """Intertwining equations of Hom(M, N) as sparse rows.

    Unknowns are the entries of one matrix f_s: M_s -> N_s per slot,
    row-major, slot blocks in slot order (``offs[s]`` is where slot s
    starts; ``total`` unknowns in all).  Each label l: a -> b of
    the layout contributes the equations f_b @ S^M_l - S^N_l @ f_a = 0,
    one row per entry, holding at most dim M_b + dim N_a nonzeros.
    """
    lay, other = M.layout, N.layout
    if other is not lay and (other.slot_keys, list(other.ends.items())) != (
            lay.slot_keys, list(lay.ends.items())):
        raise ValueError("modules live on different quiver layouts")
    offs: dict[Slot, int] = {}
    total = 0
    for s in M.slot_keys:
        offs[s] = total
        total += N.dims[s] * M.dims[s]
    if total == 0:
        return [], offs, 0
    rows: list[dict[int, Rat]] = []
    # the columns of S^M_l: M_a -> M_b and the rows of S^N_l: N_a -> N_b
    for (a, b, p_cols), q_map in zip(_label_columns(M), N.maps.values()):
        mb, ma, off_a = M.dims[b], len(p_cols), offs[a]
        for i, q_row in enumerate(q_map.data):
            base_b = offs[b] + i * mb
            for j, p_col in enumerate(p_cols):
                row: dict[int, Rat] = {base_b + k: c for k, c in p_col}
                for k, c in q_row:
                    col = off_a + k * ma + j
                    row[col] = row.get(col, 0) - c
                if row:
                    rows.append(row)
    return rows, offs, total


def hom_basis(M: Rep, N: Rep) -> list[SlotMap]:
    """Basis of the space of module morphisms M -> N.

    The canonical kernel basis of the intertwining system (see
    ``_hom_system``), cut back into one matrix per slot; the returned
    morphism basis is canonical too.
    """
    rows, offs, total = _hom_system(M, N)
    echelon, pivots = rref_rows(rows, total)
    out = []
    for vec in kernel_from_rref(echelon, pivots, range(total)).values():
        entries = sorted(vec.items())
        entries.append((total, 0))  # past every block
        k = 0
        blocks = {}
        for s in M.slot_keys:
            r, c = N.dims[s], M.dims[s]
            base, end = offs[s], offs[s] + r * c
            if entries[k][0] >= end:  # most blocks are zero: share one per shape
                blocks[s] = RatMatrix.zeros(r, c)
                continue
            block: list[list[tuple[int, Rat]]] = [[] for _ in range(r)]
            while entries[k][0] < end:
                t, x = entries[k]
                i, j = divmod(t - base, c)
                block[i].append((j, x))
                k += 1
            blocks[s] = RatMatrix._trusted(block, c)
        out.append(SlotMap(M, N, blocks))
    return out


def checked_hom(M: Rep, N: Rep, dim: int, pair: tuple) -> list[SlotMap]:
    """``hom_basis(M, N)`` for a pair whose Hom dimension ``dim`` is known
    without it, and ``RuntimeError``, naming M and N by ``pair``, unless the
    solved basis has exactly dim maps.  A claim of 0 builds no basis: the
    rank of the intertwining system (``hom_dim``) must confirm it."""
    got = hom_basis(M, N) if dim else []
    found = len(got) if dim else hom_dim(M, N)
    if found != dim:
        raise RuntimeError(f"the Hom basis of ({pair[0]}, {pair[1]}) has {found} maps, "
                           f"not {dim}")
    return got


def hom_dim(M: Rep, N: Rep) -> int:
    """dim Hom(M, N) from the rank of the intertwining system alone."""
    rows, _, total = _hom_system(M, N)
    return total - len(rref_rows(rows, total)[1])


def end_dim(M: Rep) -> int:
    """dim End(M), solved once per module and kept on it (modules are not
    mutated once built), so every End check of a module shares one solve."""
    got = M._end_dim
    if got is None:
        got = M._end_dim = hom_dim(M, M)
    return got


# ---------------------------------------------------------------------------
# kernels, cokernels, sums


def cokernel_projection(mat: RatMatrix) -> tuple[list[int], RatMatrix]:
    """Projection of the target of ``mat`` onto the greedy standard-basis
    complement of its image, along the image.

    The image is brought to echelon form with the columns reversed: each
    reduced row r_p is 1 at its pivot p, its largest column, and holds no
    other pivot column.  The columns that are not pivots form the greedy
    complement: scanning c = 0, 1, ..., e_c is taken iff it lies outside
    the image plus the e_c' taken before it.  (A pivot p has its row, e_p
    plus columns below p, in the image; a non-pivot c cannot be reached,
    since a combination of rows is nonzero at its largest pivot.)
    Returns the complement columns and the projection, one row per
    complement column c: e_c - sum_p r_p[c] e_p, the canonical kernel
    basis of the reversed echelon (``kernel_from_rref``).  The projection
    onto a fixed complement along a fixed subspace is unique.
    """
    d = mat.rows
    top = d - 1
    rows, pivots = rref_rows(({top - i: x for i, x in col}  # the columns
                              for col in mat.transpose().data), d)
    kernel = kernel_from_rref(rows, pivots, range(top, -1, -1))
    proj = RatMatrix(([(top - j, x) for j, x in v.items()] for v in kernel.values()), d)
    return [top - f for f in kernel], proj


def cokernel(f: SlotMap) -> tuple[Rep, SlotMap]:
    """Cokernel with its projection, using greedy standard-basis complements."""
    N = f.dst
    comps: dict[Slot, list[int]] = {}
    projs: dict[Slot, RatMatrix] = {}
    for s in N.slot_keys:
        comps[s], projs[s] = cokernel_projection(f.blocks[s])
    maps = {lab: projs[b] @ N.maps[lab].columns(comps[a])
            for lab, (a, b) in N.layout.ends.items()}
    C = Rep(N.quiver, N.layout, {s: len(comps[s]) for s in N.slot_keys}, maps)
    proj = SlotMap(N, C, projs)
    return C, proj


def _sum_module(mods: Sequence[Rep]) -> Rep:
    """The direct sum of modules on one layout: block-diagonal maps."""
    proto = mods[0]
    dims = {s: sum(m.dims[s] for m in mods) for s in proto.slot_keys}
    return Rep(proto.quiver, proto.layout, dims, {
        lab: RatMatrix.block_diagonal([m.maps[lab] for m in mods]) for lab in proto.maps})


# ---------------------------------------------------------------------------
# approximations and exchange sequences


def _flat_row(f: SlotMap) -> dict[int, Rat]:
    """The blocks of f as one sparse row, slot by slot, each block
    row-major: the unknowns of ``_hom_system``."""
    out: dict[int, Rat] = {}
    base = 0
    for s in f.src.slot_keys:
        block = f.blocks[s]
        for row in block.data:
            for j, x in row:
                out[base + j] = x
            base += block.cols
    return out


def _composite_row(g: SlotMap, h: SlotMap) -> dict[int, Rat]:
    """``_flat_row`` of the composite g . h, slot by slot from the block
    rows of g and h.  Sums that cancel stay as explicit zeros, which
    ``SparseEchelon`` drops."""
    out: dict[int, Rat] = {}
    get = out.get
    base = 0
    for s in h.src.slot_keys:
        h_block = h.blocks[s]
        c = h_block.cols
        if not c:
            continue
        h_rows = h_block.data
        for g_row in g.blocks[s].data:
            for k, a in g_row:
                for t, b in h_rows[k]:
                    t += base
                    out[t] = get(t, 0) + a * b
            base += c
    return out


def _coordinates(
    basis: Mapping[int, Mapping[int, Rat]], vecs: Iterable[Mapping[int, Rat]]
) -> list[tuple[Rat, ...]]:
    """Coordinates of sparse vectors in a basis keyed by free column, as
    ``kernel_from_rref`` returns one: each basis vector has entry 1 at its
    key, where every other one is zero, so a vector's coordinates are its
    entries there.  Raises ``RuntimeError`` unless every residual vec -
    sum c_k . b_k is zero (so the coordinates are exact)."""
    out = []
    for vec in vecs:
        coords = tuple(as_int_if_integral(vec.get(f, 0)) for f in basis)
        residual = dict(vec)
        for c, row in zip(coords, basis.values()):
            if c:
                for col, v in row.items():
                    residual[col] = residual.get(col, 0) - c * v
        if any(residual.values()):
            raise RuntimeError("a map does not lie in the span of its cached Hom basis")
        out.append(coords)
    return out


def basis_coordinates(
    basis: Sequence[SlotMap], vecs: Iterable[Mapping[int, Rat]]
) -> list[tuple[Rat, ...]]:
    """Coordinates in ``basis`` of maps given as sparse ``_flat_row`` rows.

    ``basis`` is meant to be a ``hom_basis`` result, a canonical kernel
    basis: each basis map's free column is its last nonzero entry, and
    ``_coordinates`` reads the maps there.  Raises ``RuntimeError`` unless
    the free columns are distinct (so the basis is independent).
    """
    rows = [_flat_row(b) for b in basis]
    if not all(rows):
        raise RuntimeError("a Hom basis map is zero")
    keyed = {max(row): row for row in rows}
    if len(keyed) != len(rows):
        raise RuntimeError("Hom basis maps share their last nonzero entry")
    return _coordinates(keyed, vecs)


def _span_rows(coords: Iterable[Sequence[Rat]], d: int) -> tuple[tuple[Rat, ...], ...]:
    """The reduced echelon rows of the span of coordinate vectors of length d."""
    rows, _ = rref_rows((dict(enumerate(c)) for c in coords), d)
    return tuple(tuple(row.get(k, 0) for k in range(d)) for row in rows)


def radical_coordinates(
    hom_xj: Sequence[SlotMap],
    hom_ji: Sequence[SlotMap],
    hom_xi: Sequence[SlotMap],
) -> tuple[tuple[Rat, ...], ...]:
    """The span of the composites x -> P_j -> P_i (g . h, h in ``hom_xj``,
    g in ``hom_ji``) in coordinates of the basis ``hom_xi`` of
    Hom(x, P_i): its reduced echelon rows, each of length
    ``len(hom_xi)``."""
    if not (hom_xj and hom_ji):
        return ()
    composites = [_composite_row(g, h) for g in hom_ji for h in hom_xj]
    return _span_rows(basis_coordinates(hom_xi, composites), len(hom_xi))


def composite_coordinates(
    hom_xi: Sequence[SlotMap],
    hom_iy: Sequence[SlotMap],
    hom_xy: Sequence[SlotMap],
) -> tuple[tuple[tuple[Rat, ...], ...], ...]:
    """Coordinates of g_l . h_k in the basis ``hom_xy`` of Hom(x, y),
    for h_k in ``hom_xi`` and g_l in ``hom_iy``: entry [k][l]."""
    return tuple(tuple(basis_coordinates(hom_xy, [_composite_row(g, h) for g in hom_iy]))
                 for h in hom_xi)


class IndexCache:
    """Hom data between a fixed list of objects, keyed by object index: a
    subclass supplies a basis of Hom(object i, object j), kept in
    ``_hom``, as ``hom_idx(i, j)``, and object i as ``module(i)`` if the
    add test (``approximation_key``, ``cokernel_in_add``) runs over it;
    the coordinates read over those bases are cached here, one copy of
    each value."""

    def __init__(self) -> None:
        self._hom: dict[tuple[int, int], list[SlotMap]] = {}
        self._radical: dict[tuple[int, int, int], tuple] = {}
        self._composites: dict[tuple[int, int, int], tuple] = {}
        self._shared: dict[tuple, tuple] = {}

    def radical_idx(self, x: int, j: int, i: int) -> tuple:
        """``radical_coordinates`` of the composites x -> j -> i, in the
        basis ``hom_idx(x, i)`` (cached)."""
        got = self._radical.get((x, j, i))
        if got is None:
            got = radical_coordinates(self.hom_idx(x, j), self.hom_idx(j, i), self.hom_idx(x, i))
            got = self._radical[(x, j, i)] = self._shared.setdefault(got, got)
        return got

    def composite_idx(self, x: int, i: int, y: int) -> tuple:
        """``composite_coordinates`` of the composites x -> i -> y, in the
        basis ``hom_idx(x, y)`` (cached)."""
        got = self._composites.get((x, i, y))
        if got is None:
            got = composite_coordinates(self.hom_idx(x, i), self.hom_idx(i, y),
                                        self.hom_idx(x, y))
            got = self._composites[(x, i, y)] = self._shared.setdefault(got, got)
        return got


def minimal_left_approximation(
    hom_x: Sequence[list[SlotMap]],
    radical: Callable[[int, int], Sequence[Sequence[Rat]]],
) -> list[tuple[int, SlotMap]]:
    """Components of the minimal left approximation of x into add(pool),
    given the bases ``hom_x[i]`` of Hom(x, pool_i).

    Pool members must be pairwise non-isomorphic indecomposables with
    one-dimensional endomorphism rings (the caller's responsibility —
    every pool in this package satisfies it).  For each pool index i the
    chosen maps x -> pool_i descend to a basis of

        Hom(x, pool_i) / sum_{j != i} Hom(pool_j, pool_i) . Hom(x, pool_j)

    which pins the multiplicities of the minimal approximation; the
    selected components together form one.  The radical span is taken
    in coordinates of the basis of Hom(x, pool_i): ``radical(j, i)`` is
    the ``radical_coordinates`` of the pair, asked for only when
    Hom(x, pool_i) and Hom(x, pool_j) are both nonzero, and each basis
    map joins iff its unit vector enlarges the span.
    """
    r = len(hom_x)
    comps: list[tuple[int, SlotMap]] = []
    for i in range(r):
        d = len(hom_x[i])
        if not d:
            continue
        span = SparseEchelon(d)
        for j in range(r):
            if j == i or not hom_x[j]:
                continue
            rows = radical(j, i)
            if len(rows) == d:  # d independent rows: all of Hom(x, pool_i)
                break
            for row in rows:
                span.add(dict(enumerate(row)))
            if span.rank == d:
                break
        else:
            for k, h in enumerate(hom_x[i]):
                if span.add({k: 1}):
                    comps.append((i, h))
    return comps


def approximation_map(
    x: Rep, pool: Sequence[Rep], comps: Sequence[tuple[int, SlotMap]]
) -> tuple[Rep, SlotMap]:
    """The map x -> E into the sum of the chosen components, at least one
    (``injective_approximation`` returns them)."""
    # the sum of inclusion . component: the component blocks, stacked
    E = _sum_module([pool[i] for i, _ in comps])
    blocks = {s: RatMatrix.vstack([h.blocks[s] for _, h in comps]) for s in x.slot_keys}
    return E, SlotMap(x, E, blocks)


class NoExchangeSequence(RuntimeError):
    """The minimal left approximation is zero or fails to be injective.

    Callers that expect one (every exchange this package certifies) let
    it through as an engine error; a caller asking whether a module lies
    in add of a pool catches it."""


def injective_approximation(
    x: Rep,
    hom_x: Sequence[list[SlotMap]],
    radical: Callable[[int, int], Sequence[Sequence[Rat]]],
) -> list[tuple[int, SlotMap]]:
    """The components of a nonzero, injective minimal left approximation
    of x into add(pool) (arguments as in ``minimal_left_approximation``);
    raises ``NoExchangeSequence`` otherwise."""
    comps = minimal_left_approximation(hom_x, radical)
    if not comps:
        raise NoExchangeSequence("empty approximation: x admits no map into the pool")
    # injective iff the stacked component blocks have full column rank
    for s in x.slot_keys:
        if not x.dims[s]:
            continue
        rows = (dict(row) for _, h in comps for row in h.blocks[s].data)
        if len(rref_rows(rows, x.dims[s])[1]) != x.dims[s]:
            raise NoExchangeSequence("approximation map is not injective")
    return comps


def exchange_sequence(
    x: Rep,
    pool: Sequence[Rep],
    hom_x: Sequence[list[SlotMap]],
    radical: Callable[[int, int], Sequence[Sequence[Rat]]],
) -> tuple[Rep, Rep]:
    """Short exact sequence 0 -> x -> E -> y -> 0 from the minimal left
    approximation of x into add(pool) (``hom_x`` and ``radical`` as in
    ``minimal_left_approximation``).

    Returns (E, y).  Raises ``NoExchangeSequence`` if the approximation
    is zero or fails to be injective, which in the tilting-exchange
    situations this package certifies cannot happen.
    """
    E, f = approximation_map(x, pool, injective_approximation(x, hom_x, radical))
    y, _ = cokernel(f)
    return E, y


def basis_position(basis: Sequence[SlotMap], h: SlotMap) -> int:
    """The position of the approximation component h in its cached Hom
    basis (``RuntimeError`` if it is not one of the basis maps)."""
    for position, b in enumerate(basis):
        if b is h:
            return position
    raise RuntimeError("an approximation component is not a cached Hom basis map")


def exchange_line(
    comps: Sequence[tuple[int, SlotMap]],
    hom_x: Sequence[list[SlotMap]],
    hom_y: Sequence[list[SlotMap]],
    composites: Callable[[int], Sequence[Sequence[Sequence[Rat]]]],
) -> tuple[list[tuple[int, SlotMap]], dict[int, dict[int, Rat]]]:
    """The maps g: E -> y with g . f = 0, f: x -> E the approximation
    with components ``comps`` (each a basis map of ``hom_x[i]``).

    g is a combination of the terms (basis map of Hom(pool_i, y)) .
    (projection onto component k); returns the terms (k, basis map) and
    the canonical kernel basis of the coefficients, keyed by free term
    (``kernel_from_rref``).  The equations are the coordinates of g . f
    in a basis of Hom(x, y), one row per basis map, read from
    ``composites(i)`` = ``composite_coordinates`` of Hom(x, pool_i),
    Hom(pool_i, y) and Hom(x, y).  As that coordinate map is injective,
    the system has the row space, hence the kernel basis, of g . f = 0
    taken entrywise.
    """
    terms: list[tuple[int, SlotMap]] = []
    equations: dict[int, dict[int, Rat]] = {}
    for k, (i, h) in enumerate(comps):
        for g, coords in zip(hom_y[i], composites(i)[basis_position(hom_x[i], h)]):
            col = len(terms)
            terms.append((k, g))
            for entry, v in enumerate(coords):
                if v:
                    equations.setdefault(entry, {})[col] = v
    echelon, pivots = rref_rows(equations.values(), len(terms))
    return terms, kernel_from_rref(echelon, pivots, range(len(terms)))


def approximation_key(ctx: IndexCache, x: int, members: Sequence[int]
                      ) -> tuple[tuple[int, int], ...]:
    """The injective minimal left approximation f: x -> E of object x into
    add of the objects ``members`` (``injective_approximation`` over
    ``ctx``), as a key naming f: per component, its target's object index
    and its position in the cached basis ``ctx.hom_idx(x, target)``."""
    comps = injective_approximation(ctx.module(x), [ctx.hom_idx(x, k) for k in members],
                                    lambda a, b: ctx.radical_idx(x, members[a], members[b]))
    return tuple((members[i], basis_position(ctx.hom_idx(x, members[i]), h)) for i, h in comps)


def cokernel_in_add(ctx: IndexCache, x: int, key: tuple[tuple[int, int], ...]
                    ) -> Callable[[Sequence[int]], list[int] | None]:
    """The add test of C = coker(f: x -> E), f named by ``key``
    (``approximation_key``), from the cached Hom bases and composites of
    ``ctx``; neither E nor C is built.  A map E -> k is a vector over the
    bases ``hom_idx(m_c, k)``; Hom(-, k) is left exact, so Hom(C, k) is
    the kernel of precomposition with f (``hom``, by ``exchange_line``).
    C is in add of some objects iff its minimal left approximation into
    their sum is injective with target of dimension dim C
    (Auslander-Smalo, ``decide``).  Returns the test: the multiplicity in
    C of each given object, or None, a verdict certified by recomputing
    every composite block it read (``RuntimeError`` on a mismatch).  The
    deep check tests coker(P -> T0) against the summands of T; an
    exchange pair (x, y) holds iff the test of [y] gives [1], that is,
    iff 0 -> x -> E -> y -> 0 is exact."""
    mod = ctx.module
    targets = [mod(m).dim_vector() for m, _ in key]         # E's summands
    dims = tuple(sum(col) - w for col, w in zip(zip(*targets), mod(x).dim_vector()))  # C's
    hom_x = [ctx.hom_idx(x, m) for m, _ in key]
    f_maps = [(c, hom_x[c][pos]) for c, (_, pos) in enumerate(key)]

    homs, radicals, decided = {}, {}, {}       # plain memos: no cache wrapper per call

    def hom(k: int) -> tuple[dict[int, dict[int, Rat]], list[tuple[int, int]]]:
        """The canonical kernel basis by free column (``exchange_line``)
        and each column's (component, basis position)."""
        if k not in homs:
            columns = [(c, l) for c, (m, _) in enumerate(key)
                       for l in range(len(ctx.hom_idx(m, k)))]
            if ctx.hom_idx(x, k):
                _, kernel = exchange_line(f_maps, hom_x, [ctx.hom_idx(m, k) for m, _ in key],
                                          lambda c: ctx.composite_idx(x, key[c][0], k))
            else:                                 # every map E -> k kills x
                kernel = {col: {col: 1} for col in range(len(columns))}
            homs[k] = kernel, columns
        return homs[k]

    def radical(j: int, i: int) -> tuple:
        """``radical_coordinates`` of C -> j -> i in ``hom(i)``, each
        composite lifted through ``composite_idx(m_c, j, i)``."""
        if (j, i) in radicals:
            return radicals[(j, i)]
        (phis, columns), (basis, _) = hom(j), hom(i)
        starts = list(accumulate((len(ctx.hom_idx(m, i)) for m, _ in key), initial=0))
        lifts = []
        for q in range(len(ctx.hom_idx(j, i))):
            for phi in phis.values():
                lift: dict[int, Rat] = {}
                for col, a in phi.items():
                    c, l = columns[col]
                    for z, v in enumerate(ctx.composite_idx(key[c][0], j, i)[l][q], starts[c]):
                        if v:
                            lift[z] = lift.get(z, 0) + a * v
                lifts.append(lift)
        radicals[(j, i)] = _span_rows(_coordinates(basis, lifts), len(basis))
        return radicals[(j, i)]

    def decide(support: tuple[int, ...]) -> Counter | None:
        """The test on the objects k with Hom(C, k) nonzero.  C -> E' is
        injective iff its lift G: E -> E', built from Hom basis maps, has
        rank dim E_s - dim x_s at every slot s; G . f = 0 is checked."""
        found = minimal_left_approximation(
            [list(hom(k)[0]) for k in support], lambda a, b: radical(support[a], support[b]))
        # per component C -> k: k, its dims and the terms of its lift, each
        # a coefficient, a component c of E and the basis map m_c -> k
        lifts = []
        for i, f in found:
            k = support[i]
            basis, columns = hom(k)
            terms = []
            for col, a in basis[f].items():
                c, l = columns[col]
                terms.append((a, c, ctx.hom_idx(key[c][0], k)[l]))
            lifts.append((k, mod(k).dim_vector(), terms))
        if tuple(map(sum, zip(*(d for _, d, _ in lifts)))) != dims:
            return None
        for t, (s, n) in enumerate(zip(mod(x).slot_keys, dims)):
            if not n:                             # no rows, and E_s - x_s = 0
                continue
            # where each component starts in E_s, then dim E_s
            offs = list(accumulate((d[t] for d in targets), initial=0))
            echelon = SparseEchelon(offs[-1])
            f_rows = [row for _, h in f_maps for row in h.blocks[s].data]  # f_s, E_s x x_s
            for k, d, terms in lifts:
                block: list[dict[int, Rat]] = [{} for _ in range(d[t])]
                for a, c, g in terms:
                    off = offs[c]
                    for out, g_row in zip(block, g.blocks[s].data):
                        for u, v in g_row:
                            out[off + u] = out.get(off + u, 0) + a * v
                for row in block:
                    gf: dict[int, Rat] = {}
                    for u, a in row.items():
                        for w, v in f_rows[u]:
                            gf[w] = gf.get(w, 0) + a * v
                    if any(gf.values()):
                        raise RuntimeError(f"a map from the cokernel to {k} does not kill "
                                           "the approximated object")
                    echelon.add(row)
            if echelon.rank != n:
                return None
        return Counter(k for k, _, _ in lifts)

    def multiplicities(members: Sequence[int]) -> list[int] | None:
        if not any(dims):                         # the injective f keeps dimensions
            return [0] * len(members)
        support = tuple(k for k in members if hom(k)[0])
        if support not in decided:                # one test per support
            decided[support] = decide(support)
        counts = decided[support]
        if counts is not None:
            return [counts[k] for k in members]
        # a None is certified: the blocks that hom, then radical, read
        for a, i, b in sorted({(x, m, k) for m, _ in key for k in members}
                              | {(m, j, k) for m, _ in key for j in support for k in support}):
            if ctx.composite_idx(a, i, b) != composite_coordinates(
                    ctx.hom_idx(a, i), ctx.hom_idx(i, b), ctx.hom_idx(a, b)):
                raise RuntimeError(f"cached composites of objects {(a, i, b)} "
                                   "disagree with their maps")
        return None

    return multiplicities
