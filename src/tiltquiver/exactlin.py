"""Exact linear algebra over the rationals.

Everything in the package that smells like numerics goes through this
module, and this module only ever touches ``fractions.Fraction`` (and
plain ``int`` internally).  No floats, no numpy: results are exact and
runs are deterministic, which the rest of the code relies on when it
freezes computed values into regression tests.

All elimination goes through one sparse kernel, :class:`SparseEchelon`:
an incremental Gauss-Jordan on rows stored as ``{column: entry}`` dicts
that never touches a zero entry and keeps integral entries as ``int``, so
the 0/±1 systems the package builds stay in machine-word arithmetic.
:func:`rref_rows` runs it over a batch of rows and
:func:`kernel_from_rref`, the one builder of kernel bases, reads a sparse
kernel basis off its result.  :class:`RatMatrix`, the one matrix of the
package, stores the structure maps and morphism blocks of modules as
sparse rows of ``(column, entry)`` pairs, with the products, stacking and
column selection the engine assembles them with, and hands its rows to
the kernel for rank and kernel bases; ``homsolve`` feeds the kernel the
intertwining systems of Hom spaces directly and reads the rows of the
blocks as they are.  Entries are ``int`` or ``Fraction``, ``int`` while
integral, on every side.

Echelon-based outputs are *canonical*: the reduced row echelon form of a
matrix is unique, so the order in which the kernel picks its pivots
cannot change any output, and the same subspace always yields the same
basis.  Callers may compare bases by equality.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Iterable, Mapping, Sequence

Rat = Fraction | int

__all__ = [
    "RatMatrix",
    "SparseEchelon",
    "rref_rows",
    "kernel_from_rref",
]


def as_int_if_integral(x: Rat) -> Rat:
    """``x`` as an ``int`` when it is integral, else the Fraction itself."""
    if type(x) is int:
        return x
    return x.numerator if x.denominator == 1 else x


def _check_columns(data: Iterable[Sequence[tuple[int, Rat]]], cols: int) -> None:
    """``ValueError`` unless the columns of each row ascend strictly within
    ``0..cols-1``."""
    for row in data:
        last = -1
        for j, _ in row:
            if not last < j < cols:
                raise ValueError(f"row {row}: columns must ascend, without repeats, "
                                 f"within 0..{cols - 1}")
            last = j


def _sub(row: dict[int, Rat], f: Rat, other: Mapping[int, Rat]) -> None:
    """row -= f * other in place, dropping the entries that cancel."""
    get = row.get
    for j, x in other.items():
        y = get(j, 0) - f * x
        if y:
            row[j] = y
        else:
            del row[j]


class SparseEchelon:
    """Incremental Gauss-Jordan elimination on sparse rational rows.

    Rows are dicts ``{column: entry}`` over ``ncols`` columns.  The
    stored rows are in reduced echelon form at all times: each has
    entry 1 at its pivot column and no entry at any other pivot column.
    A row added is cleared only at the pivot columns it contains (each
    stored row is zero at the others, so one pass suffices), its
    smallest remaining column becomes a new pivot, and that column is
    then cleared from the earlier rows that hold it, which an index from
    each non-pivot column to the rows holding it finds without a scan.
    Work is proportional to the nonzero entries touched, never to the
    width of the matrix.

    Entries are kept as ``int`` while they are integral and as
    ``Fraction`` otherwise; :meth:`result` hands out every integral entry
    as an ``int``.
    """

    __slots__ = ("ncols", "_rows", "_holders")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: dict[int, dict[int, Rat]] = {}  # pivot column -> row
        self._holders: dict[int, set[int]] = {}  # column -> pivots of rows with it

    @property
    def rank(self) -> int:
        return len(self._rows)

    def reduce(self, row: Mapping[int, Rat]) -> dict[int, Rat]:
        """Residual of ``row`` modulo the span: zero at every pivot column."""
        # as_int_if_integral, inlined: this runs once per input entry
        out = {c: x if type(x) is int or x.denominator != 1 else x.numerator
               for c, x in row.items() if x}
        if out and (min(out) < 0 or max(out) >= self.ncols):
            raise ValueError(f"column index outside 0..{self.ncols - 1}")
        stored = self._rows
        for p in [c for c in out if c in stored]:
            _sub(out, out[p], stored[p])
        return out

    def add(self, row: Mapping[int, Rat]) -> bool:
        """Insert a row; True iff it enlarged the span."""
        r = self.reduce(row)
        if not r:
            return False
        c = min(r)
        pv = r[c]
        if pv == -1:
            r = {j: -x for j, x in r.items()}
        elif pv != 1:
            inv = 1 / Fraction(pv)
            r = {j: as_int_if_integral(x * inv) for j, x in r.items()}
        rest = [(j, x) for j, x in r.items() if j != c]
        holders = self._holders
        for j, _ in rest:
            holders.setdefault(j, set()).add(c)
        for q in holders.pop(c, ()):
            other = self._rows[q]
            f = other.pop(c)
            for j, x in rest:
                y = other.get(j)
                if y is None:
                    other[j] = -f * x
                    holders[j].add(q)
                else:
                    y -= f * x
                    if y:
                        other[j] = y
                    else:
                        del other[j]
                        holders[j].discard(q)
        self._rows[c] = r
        return True

    def result(self) -> tuple[list[dict[int, Rat]], list[int]]:
        """(nonzero RREF rows in pivot order, pivot columns ascending)."""
        pivots = sorted(self._rows)
        # as_int_if_integral, inlined: eliminating can leave Fraction(n, 1)
        rows = [{j: x if type(x) is int or x.denominator != 1 else x.numerator
                 for j, x in self._rows[p].items()} for p in pivots]
        return rows, pivots


def rref_rows(
    rows: Iterable[Mapping[int, Rat]], ncols: int
) -> tuple[list[dict[int, Rat]], list[int]]:
    """Reduced row echelon form of sparse rows over ``ncols`` columns.

    Returns the nonzero rows of the RREF as ``{column: entry}`` dicts,
    ``int`` where integral, sorted by pivot, and the pivot columns in
    increasing order; the number of pivots is the rank.
    """
    ech = SparseEchelon(ncols)
    for row in rows:
        ech.add(row)
    return ech.result()


def kernel_from_rref(
    rows: Sequence[Mapping[int, Rat]], pivots: Sequence[int], columns: Iterable[int]
) -> dict[int, dict[int, Rat]]:
    """Canonical basis of the right kernel from an :func:`rref_rows` result.

    ``columns`` are the unknowns, which hold every entry of ``rows``.  One
    sparse vector per free column ``f`` among them, keyed by ``f`` in their
    order: entry 1 at ``f``, the negated RREF coefficients of column ``f``
    at the pivots.  Each RREF row starts at its pivot, so ``f`` is the last
    nonzero entry, and the other vectors are zero there.  The basis is
    unique given the matrix.
    """
    pivot_set = set(pivots)
    basis = {f: {f: 1} for f in columns if f not in pivot_set}
    for row, p in zip(rows, pivots):
        for j, x in row.items():
            if j != p:
                basis[j][p] = -x
    return basis


class RatMatrix:
    """Sparse rational matrix: the structure maps and morphism blocks of
    modules.

    ``data`` holds, per row, that row's nonzero ``(column, entry)`` pairs
    in ascending column order, entries ``int`` while integral, so equal
    matrices have equal ``data``.  Products, stacking and column selection
    touch nonzero entries only; ``rref`` hands the rows to the sparse
    kernel :func:`rref_rows`.  Matrices are not mutated once built.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable[tuple[int, Rat]]], cols: int):
        """Build from rows of ``(column, entry)`` pairs in any order; zero
        entries are dropped.  ``ValueError`` on a column outside
        ``0..cols-1`` or repeated within a row."""
        rows = [sorted(row) for row in data]
        _check_columns(rows, cols)
        self.data: list[list[tuple[int, Rat]]] = [
            [(j, as_int_if_integral(x)) for j, x in row if x] for row in rows]
        self.rows: int = len(rows)
        self.cols: int = cols

    @classmethod
    def _trusted(cls, data: list[list[tuple[int, Rat]]], cols: int) -> "RatMatrix":
        """Wrap fresh rows of nonzero entries, ``int`` where integral.
        Skips the sorting and conversion of the public constructor, not
        its column check."""
        _check_columns(data, cols)
        m = object.__new__(cls)
        m.data = data
        m.rows = len(data)
        m.cols = cols
        return m

    @classmethod
    @cache
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        """The zero matrix, one object per shape."""
        return cls._trusted([[] for _ in range(rows)], cols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.shape == other.shape and self.data == other.data

    def __repr__(self) -> str:
        return f"RatMatrix({self.data!r}, cols={self.cols})"

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        """Matrix product self @ other."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        out = []
        for row in self.data:
            acc: dict[int, Rat] = {}
            for k, a in row:
                for j, b in other.data[k]:
                    acc[j] = acc.get(j, 0) + a * b
            out.append([(j, as_int_if_integral(x)) for j, x in sorted(acc.items()) if x])
        return RatMatrix._trusted(out, other.cols)

    def transpose(self) -> "RatMatrix":
        out: list[list[tuple[int, Rat]]] = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.data):
            for j, x in row:
                out[j].append((i, x))
        return RatMatrix._trusted(out, self.rows)

    @classmethod
    def vstack(cls, blocks: Iterable["RatMatrix"]) -> "RatMatrix":
        blocks = list(blocks)
        if not blocks:
            raise ValueError("vstack of nothing")
        w = blocks[0].cols
        if any(b.cols != w for b in blocks):
            raise ValueError("vstack width mismatch")
        return cls._trusted([row[:] for b in blocks for row in b.data], w)

    @classmethod
    def hstack(cls, blocks: Iterable["RatMatrix"]) -> "RatMatrix":
        blocks = list(blocks)
        if not blocks:
            raise ValueError("hstack of nothing")
        if any(b.rows != blocks[0].rows for b in blocks):
            raise ValueError("hstack height mismatch")
        rows: list[list[tuple[int, Rat]]] = [[] for _ in range(blocks[0].rows)]
        left = 0
        for b in blocks:
            for out, row in zip(rows, b.data):
                out.extend((left + j, x) for j, x in row)
            left += b.cols
        return cls._trusted(rows, left)

    @classmethod
    def block_diagonal(cls, blocks: Sequence["RatMatrix"]) -> "RatMatrix":
        """Blocks along the diagonal, zeros elsewhere."""
        rows: list[list[tuple[int, Rat]]] = []
        left = 0
        for b in blocks:
            rows.extend([(left + j, x) for j, x in row] for row in b.data)
            left += b.cols
        return cls._trusted(rows, left)

    def columns(self, idx: Sequence[int]) -> "RatMatrix":
        """The submatrix of the listed distinct columns, in the order given."""
        pos = {j: k for k, j in enumerate(idx)}
        if len(pos) != len(idx):
            raise ValueError(f"repeated columns in {list(idx)}")
        return RatMatrix._trusted(
            [sorted((pos[j], x) for j, x in row if j in pos) for row in self.data], len(idx))

    def rref(self) -> tuple[list[dict[int, Rat]], list[int]]:
        """Reduced row echelon form: :func:`rref_rows` of the rows."""
        return rref_rows(map(dict, self.data), self.cols)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> dict[int, dict[int, Rat]]:
        """The canonical basis of the right kernel, keyed by free column
        (:func:`kernel_from_rref`)."""
        rows, pivots = self.rref()
        return kernel_from_rref(rows, pivots, range(self.cols))
