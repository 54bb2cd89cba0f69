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
:func:`kernel_from_rref` reads a kernel basis off its result.
:class:`RatMatrix` stores the structure maps and morphism blocks of
modules densely, with the products, stacking and column selection the
engine assembles them with, and hands its rows to the kernel for rank
and kernel bases; ``homsolve`` feeds the kernel the intertwining systems
of Hom spaces directly, without a dense matrix.

Echelon-based outputs are *canonical*: the reduced row echelon form of a
matrix is unique, so the order in which the kernel picks its pivots
cannot change any output, and the same subspace always yields the same
basis.  Callers may compare bases by equality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Rat = Fraction | int

__all__ = [
    "RatMatrix",
    "SparseEchelon",
    "rref_rows",
    "kernel_from_rref",
]


_ZERO = Fraction(0)


def _frac(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def sparse_row(vec: Sequence[Rat]) -> dict[int, Rat]:
    """The nonzero entries of a dense vector, keyed by position."""
    return {j: x for j, x in enumerate(vec) if x}


def dense_row(row: Mapping[int, Fraction], n: int) -> list[Fraction]:
    """Dense vector of length ``n`` from sparse entries."""
    v = [_ZERO] * n
    for j, x in row.items():
        v[j] = x
    return v


def as_int_if_integral(x: Rat) -> Rat:
    """``x`` as an ``int`` when it is integral, else the Fraction itself."""
    if type(x) is int:
        return x
    return x.numerator if x.denominator == 1 else x


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
    ``Fraction`` otherwise; :meth:`result` hands out only Fractions.
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

    def result(self) -> tuple[list[dict[int, Fraction]], list[int]]:
        """(nonzero RREF rows in pivot order, pivot columns ascending)."""
        pivots = sorted(self._rows)
        rows = [
            {j: x if type(x) is Fraction else Fraction(x)
             for j, x in self._rows[p].items()}
            for p in pivots
        ]
        return rows, pivots


def rref_rows(
    rows: Iterable[Mapping[int, Rat]], ncols: int
) -> tuple[list[dict[int, Fraction]], list[int]]:
    """Reduced row echelon form of sparse rows over ``ncols`` columns.

    Returns the nonzero rows of the RREF as ``{column: Fraction}`` dicts,
    sorted by pivot, and the pivot columns in increasing order; the
    number of pivots is the rank.
    """
    ech = SparseEchelon(ncols)
    for row in rows:
        ech.add(row)
    return ech.result()


def kernel_from_rref(
    rows: Sequence[Mapping[int, Fraction]], pivots: Sequence[int], ncols: int
) -> list[list[Fraction]]:
    """Canonical basis of the right kernel from an :func:`rref_rows` result.

    One vector per free column ``f``, ordered by ``f``: entry 1 at ``f``,
    the negated RREF coefficients of column ``f`` at the pivot
    positions, zero elsewhere.  The basis is unique given the matrix.
    """
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    one = Fraction(1)
    basis = [[_ZERO] * ncols for _ in free]
    at = {}
    for k, f in enumerate(free):
        basis[k][f] = one
        at[f] = k
    for row, p in zip(rows, pivots):
        for j, x in row.items():
            k = at.get(j)
            if k is not None:
                basis[k][p] = -x
    return basis


class RatMatrix:
    """Rational matrix stored densely (row-major list of lists of Fraction).

    ``data`` stays a dense list of lists for element access, products
    and block assembly; the echelon methods (``rref``, ``rank``,
    ``kernel_basis``) hand the nonzero entries to the sparse kernel
    :func:`rref_rows` and read its result back.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[Rat]], cols: int | None = None):
        """Build from an iterable of rows.

        ``cols`` disambiguates the width of a matrix with zero rows;
        otherwise it is inferred (and checked) from the rows.
        """
        self.data: list[list[Fraction]] = [[_frac(x) for x in row] for row in data]
        self.rows: int = len(self.data)
        if self.rows:
            widths = {len(r) for r in self.data}
            if len(widths) != 1:
                raise ValueError(f"ragged rows: widths {sorted(widths)}")
            inferred = widths.pop()
            if cols is not None and cols != inferred:
                raise ValueError(f"cols={cols} but rows have width {inferred}")
            self.cols: int = inferred
        else:
            if cols is None:
                raise ValueError("zero-row matrix needs an explicit column count")
            self.cols = cols

    @classmethod
    def _trusted(cls, data: list[list[Fraction]], cols: int) -> "RatMatrix":
        """Wrap rows this class built itself: fresh lists of Fractions,
        all of length ``cols``.  Skips the entry conversion and the
        width check of the public constructor."""
        m = object.__new__(cls)
        m.data = data
        m.rows = len(data)
        m.cols = cols
        return m

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls._trusted([[_ZERO] * cols for _ in range(rows)], cols)

    # ------------------------------------------------------------------
    # basic protocol

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.data[i][j]

    def __setitem__(self, ij: tuple[int, int], val: Rat) -> None:
        i, j = ij
        self.data[i][j] = _frac(val)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"RatMatrix.zeros({self.rows}, {self.cols})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"RatMatrix[{body}]"

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    # ------------------------------------------------------------------
    # arithmetic

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        """Matrix product self @ other."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        n = other.cols
        nonzeros = [[(j, b) for j, b in enumerate(row) if b] for row in other.data]
        out = []
        for row in self.data:
            acc = [_ZERO] * n
            for a, nz in zip(row, nonzeros):
                if a:
                    for j, b in nz:
                        acc[j] += a * b
            out.append(acc)
        return RatMatrix._trusted(out, n)

    def transpose(self) -> "RatMatrix":
        return RatMatrix._trusted(
            [[row[j] for row in self.data] for j in range(self.cols)], self.rows)

    def apply(self, vec: Sequence[Rat]) -> list[Fraction]:
        """Matrix-vector product (vec as a column of length ``cols``)."""
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} != cols {self.cols}")
        v = [_frac(x) for x in vec]
        return [
            sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in self.data
        ]

    # ------------------------------------------------------------------
    # block assembly

    @classmethod
    def vstack(cls, blocks: Iterable["RatMatrix"]) -> "RatMatrix":
        blocks = list(blocks)
        if not blocks:
            raise ValueError("vstack of nothing")
        w = blocks[0].cols
        rows: list[list[Fraction]] = []
        for b in blocks:
            if b.cols != w:
                raise ValueError("vstack width mismatch")
            rows.extend(row[:] for row in b.data)
        return cls._trusted(rows, w)

    @classmethod
    def hstack(cls, blocks: Iterable["RatMatrix"]) -> "RatMatrix":
        blocks = list(blocks)
        if not blocks:
            raise ValueError("hstack of nothing")
        h = blocks[0].rows
        for b in blocks:
            if b.rows != h:
                raise ValueError("hstack height mismatch")
        rows = [[x for b in blocks for x in b.data[i]] for i in range(h)]
        return cls._trusted(rows, sum(b.cols for b in blocks))

    @classmethod
    def block_diagonal(cls, blocks: Sequence["RatMatrix"]) -> "RatMatrix":
        """Blocks along the diagonal, zeros elsewhere (built row by row)."""
        width = sum(b.cols for b in blocks)
        rows: list[list[Fraction]] = []
        left = 0
        for b in blocks:
            pad, right = [_ZERO] * left, [_ZERO] * (width - left - b.cols)
            rows.extend(pad + row + right for row in b.data)
            left += b.cols
        return cls._trusted(rows, width)

    def columns(self, idx: Sequence[int]) -> "RatMatrix":
        """The submatrix of the listed columns, in the order given."""
        return RatMatrix._trusted([[row[j] for j in idx] for row in self.data], len(idx))

    # ------------------------------------------------------------------
    # echelon machinery

    def _echelon(self) -> tuple[list[dict[int, Fraction]], list[int]]:
        return rref_rows(map(sparse_row, self.data), self.cols)

    def rref(self) -> tuple["RatMatrix", list[int]]:
        """Reduced row echelon form.

        Returns ``(R, pivots)`` where ``R`` is the RREF (zero rows at the
        bottom, same shape as ``self``) and ``pivots`` the list of pivot
        column indices in increasing order.  A dense view of
        :func:`rref_rows`.
        """
        rows, pivots = self._echelon()
        n = self.cols
        data = [dense_row(row, n) for row in rows]
        data.extend([_ZERO] * n for _ in range(self.rows - len(rows)))
        return RatMatrix._trusted(data, n), pivots

    def rank(self) -> int:
        return len(self._echelon()[1])

    def kernel_basis(self) -> list[list[Fraction]]:
        """Canonical basis of the right kernel (see :func:`kernel_from_rref`)."""
        rows, pivots = self._echelon()
        return kernel_from_rref(rows, pivots, self.cols)
