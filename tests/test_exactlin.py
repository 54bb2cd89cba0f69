import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    apply,
    dense,
    gauss_jordan,
    identity,
    image_basis,
    inverse,
    solve,
    sparse_row,
)
from reference import matrix as mat
from tiltquiver import homsolve
from tiltquiver.exactlin import RatMatrix, kernel_from_rref, rref_rows
from tiltquiver.quiver_core import named_diagram
from tiltquiver.rep_a import indecomposables, kronecker_window

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src"


def dense_row(row, n):
    """A sparse ``{column: entry}`` row as a dense list of ``Fraction``."""
    return [F(row.get(j, 0)) for j in range(n)]


# ---------------------------------------------------------------- basics


def test_shape_and_ragged():
    m = mat([[1, 2], [3, 4], [5, 6]])
    assert m.shape == (3, 2)
    assert m.data == [[(0, 1), (1, 2)], [(0, 3), (1, 4)], [(0, 5), (1, 6)]]
    with pytest.raises(ValueError):
        mat([[1, 2], [3]])  # the dense helper checks the widths
    with pytest.raises(ValueError):
        mat([])  # width unknowable
    assert RatMatrix([], 4).shape == (0, 4)
    # the public constructor sorts each row, drops zeros, and keeps
    # integral entries as int
    m = RatMatrix([[(2, F(4, 2)), (0, F(1, 3)), (1, 0)], []], 3)
    assert m.data == [[(0, F(1, 3)), (2, 2)], []]
    assert type(m.data[0][1][1]) is int
    assert m == mat([[F(1, 3), 0, 2], [0, 0, 0]])


# A stray column must not pass silently, assert statements or not: both
# constructors raise ValueError on a column outside 0..cols-1 or repeated
# within a row (Rep and SlotMap check only the shapes).
BAD_COLUMNS = (
    "from tiltquiver.exactlin import RatMatrix\n"
    "for rows in ([[(3, 1)]], [[(-1, 1)]], [[(0, 1), (0, 2)]], [[(1, 1), (1, 0)]],\n"
    "             [[(2, 1), (0, 1)]]):\n"
    "    for build in (RatMatrix, RatMatrix._trusted):\n"
    "        try:\n"
    "            build(rows, 3)\n"
    "        except ValueError:\n"
    "            print('refused')\n"
    "        else:\n"
    "            print('accepted', build.__name__, rows)\n"
    "print(RatMatrix._trusted([[(0, 1), (2, 1)]], 3).shape)\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python -O"])
def test_constructors_refuse_bad_columns(flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *flags, "-c", BAD_COLUMNS],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # the trusted constructor skips the sorting, so it refuses an unsorted
    # row too, which the public one accepts sorted: only the last row differs
    assert proc.stdout == ("refused\n" * 8 + "accepted RatMatrix [[(2, 1), (0, 1)]]\n"
                           "refused\n(1, 3)\n")


def test_matmul_identity_assoc():
    a = mat([[1, 2], [3, 4]])
    i2 = identity(2)
    assert a @ i2 == a
    assert i2 @ a == a
    b = mat([[0, 1], [1, 1]])
    c = mat([[2, 0], [0, 3]])
    assert (a @ b) @ c == a @ (b @ c)


def test_apply_matches_matmul():
    a = mat([[1, 2, 3], [0, 1, 4]])
    v = [F(1), F(-1), F(2)]
    assert apply(a, v) == [F(5), F(7)]
    col = a @ mat([[x] for x in v], 1)
    assert [row[0] for row in dense(col)] == apply(a, v)


def test_stack():
    a = mat([[1, 2]])
    b = mat([[3, 4]])
    assert RatMatrix.vstack([a, b]) == mat([[1, 2], [3, 4]])
    assert RatMatrix.hstack([a, b]) == mat([[1, 2, 3, 4]])
    with pytest.raises(ValueError):
        RatMatrix.vstack([a, mat([[1, 2, 3]])])


# ---------------------------------------------------------------- rref


def test_rref_known():
    m = mat([[1, 2, 1], [2, 4, 0], [0, 0, 1]])
    R, piv = m.rref()
    assert piv == [0, 2]
    assert R == [{0: 1, 1: 2}, {2: 1}]  # the nonzero rows, sparse


def test_rref_fractions_exact():
    m = mat([[F(1, 3), F(1, 7)], [F(2, 5), F(3, 11)]])
    R, piv = m.rref()
    assert piv == [0, 1]
    assert R == [{0: 1}, {1: 1}]


def test_kernel_known():
    # x + 2y + z = 0, z = 0  ->  kernel spanned by (-2, 1, 0), keyed by
    # its free column
    m = mat([[1, 2, 1], [0, 0, 1]])
    ker = m.kernel_basis()
    assert ker == {1: {1: 1, 0: -2}}
    assert m.rank() == 2


def test_solve_cases():
    m = mat([[1, 1], [0, 1]])
    assert solve(m, [3, 1]) == [F(2), F(1)]
    inconsistent = mat([[1, 1], [1, 1]])
    assert solve(inconsistent, [0, 1]) is None
    assert solve(inconsistent, [2, 2]) == [F(2), F(0)]  # free var pinned to 0
    with pytest.raises(ValueError):
        solve(m, [1, 2, 3])


def test_image_basis_canonical():
    # same column space, different presentations -> identical bases
    a = mat([[1, 2], [1, 2], [0, 0]])
    b = mat([[3], [3], [0]])
    assert image_basis(a) == image_basis(b) == [[F(1), F(1), F(0)]]
    assert image_basis(RatMatrix.zeros(3, 2)) == []


# ------------------------------------------------------- hom-system oracle
# Intertwiner computation that rep_a will do constantly, checked here on
# a hand-solved instance: representations of the one-arrow quiver 1->2.
# X = P1 = (k -id-> k), Y = S1 = (k -> 0).  A morphism is (f1, f2) with
# f2 * id = 0 * f1, i.e. f2 = 0, f1 free:  Hom is 1-dimensional.


def test_intertwiner_system_one_dim():
    # unknowns (f1, f2); single equation f2 = 0
    system = mat([[0, 1]])
    assert system.rank() == 1
    assert system.kernel_basis() == {0: {0: 1}}
    # reversed direction Hom(S1, P1): equation f1 = 0 -> also need
    # compatibility through the arrow: 1*f1 = f2*0 gives f1 = 0
    system2 = mat([[1, 0]])
    assert system2.kernel_basis() == {1: {1: 1}}


# ---------------------------------------------------------- properties

rat = st.fractions(
    min_value=-5, max_value=5, max_denominator=7
)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(rat, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(mat)
        )
    )


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_transpose_invariant(m):
    assert m.rank() == m.transpose().rank()


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilate(m):
    ker = m.kernel_basis()
    assert m.rank() + len(ker) == m.cols
    for v in ker.values():
        assert all(x == 0 for x in apply(m, dense_row(v, m.cols)))


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_solve_round_trip(m, data):
    x = data.draw(
        st.lists(rat, min_size=m.cols, max_size=m.cols), label="x"
    )
    rhs = apply(m, x)
    got = solve(m, rhs)
    assert got is not None
    assert apply(m, got) == rhs


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_idempotent(m):
    R, piv = m.rref()
    assert RatMatrix((row.items() for row in R), m.cols).rref() == (R, piv)


def test_inverse():
    a = mat([[1, 2], [3, 5]])
    assert a @ inverse(a) == identity(2)
    assert inverse(a) @ a == identity(2)
    with pytest.raises(ValueError):
        inverse(mat([[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        inverse(mat([[1, 2, 3]]))


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_image_basis_spans_columns(m):
    basis = image_basis(m)
    assert len(basis) == m.rank()
    if basis:
        B = mat(basis).transpose()  # columns = basis vectors
        for col in zip(*dense(m)):
            assert solve(B, list(col)) is not None


# ------------------------------------------------- differential: the kernel
# RatMatrix.rref runs on the sparse kernel; these tests hold it to two
# independent implementations: the dense Gauss-Jordan of
# ``reference.gauss_jordan``, and sympy's exact rref (a test-only
# dependency).  The reference's own helpers are pinned to sympy too.


# mostly zeros, so zero rows and columns and rank drops are common
sparse_rat = st.one_of(
    st.just(F(0)), st.just(F(0)), st.just(F(0)),
    st.sampled_from([F(1), F(-1)]),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
)


@st.composite
def shaped_matrices(draw):
    shape = draw(st.sampled_from(["tall", "wide", "square", "empty"]))
    small, big = draw(st.integers(0, 4)), draw(st.integers(1, 9))
    rows, cols = {
        "tall": (big, small), "wide": (small, big),
        "square": (small, small), "empty": (draw(st.integers(0, 1)) * big, 0),
    }[shape]
    if draw(st.booleans()):
        rows, cols = cols, rows
    data = draw(st.lists(st.lists(sparse_rat, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    zero_rows = draw(st.sets(st.integers(0, rows), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, cols), max_size=2))
    data = [[F(0) if i in zero_rows or j in zero_cols else x
             for j, x in enumerate(row)] for i, row in enumerate(data)]
    return mat(data, cols)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def integral_as_int(entries):
    return all(type(x) is int or x.denominator != 1 for x in entries)


def dense_rref(R, piv, m):
    """The sparse rows of ``m.rref()`` as the dense RREF, zero rows last."""
    assert len(R) == len(piv)
    assert all(integral_as_int(row.values()) and all(row.values()) for row in R)
    return [dense_row(row, m.cols) for row in R] + [[F(0)] * m.cols] * (m.rows - len(R))


@settings(max_examples=300, deadline=None)
@given(shaped_matrices())
def test_rref_matches_dense_reference(m):
    R, piv = m.rref()
    want, want_piv = gauss_jordan(dense(m), m.cols)
    assert dense_rref(R, piv, m) == want  # every row, the zero rows included
    assert piv == want_piv
    assert [min(row) for row in R] == piv


@settings(max_examples=150, deadline=None)
@given(m=shaped_matrices())
def test_rref_matches_sympy(sympy, m):
    R, piv = to_sympy(sympy, m).rref()
    want = [[F(int(R[i, j].p), int(R[i, j].q)) for j in range(m.cols)]
            for i in range(m.rows)]
    got, got_piv = m.rref()
    assert dense_rref(got, got_piv, m) == want
    assert got_piv == list(piv)


def dense_kernel(m):
    """The canonical kernel basis from ``reference.gauss_jordan``: one
    vector per free column, 1 there, the negated RREF column at the pivots."""
    R, piv = gauss_jordan(dense(m), m.cols)
    want = []
    for f in (c for c in range(m.cols) if c not in piv):
        v = [F(0)] * m.cols
        v[f] = F(1)
        for i, p in enumerate(piv):
            v[p] = -R[i][f]
        want.append(v)
    return want


@settings(max_examples=100, deadline=None)
@given(shaped_matrices())
def test_rank_kernel_match_dense_reference(m):
    assert m.rank() == len(gauss_jordan(dense(m), m.cols)[1])
    kernel = m.kernel_basis()
    assert [dense_row(v, m.cols) for v in kernel.values()] == dense_kernel(m)
    assert kernel == kernel_from_rref(*m.rref(), range(m.cols))


def test_rref_rows_sparse_input():
    # [4 0 2; 0 0 0; 2 1/3 0] -> [1 0 1/2; 0 1 -3]
    rows, piv = rref_rows([{2: F(2), 0: 4}, {}, {0: 2, 1: F(1, 3), 2: 0}], 3)
    assert piv == [0, 1]
    assert rows == [{0: F(1), 2: F(1, 2)}, {1: F(1), 2: F(-3)}]
    # the sparse side keeps integral entries as int
    assert [{j: type(x) for j, x in row.items()} for row in rows] == [
        {0: int, 2: Fraction}, {1: int, 2: int}]
    # back-substitution leaves Fraction(-2, 1) = -1/2 * 4 in the first row
    rows, _ = rref_rows([{0: 2, 1: 1}, {0: 1, 1: 1, 2: 2}], 3)
    assert rows == [{0: 1, 2: -2}, {1: 1, 2: 4}]
    assert all(type(x) is int for row in rows for x in row.values())
    with pytest.raises(ValueError):
        rref_rows([{3: 1}], 3)


# ------------------------------------------------ the one kernel format
# ``kernel_from_rref`` builds every canonical kernel basis the package
# reads: sparse, keyed by free column, ints where integral.


@settings(max_examples=200, deadline=None)
@given(shaped_matrices())
def test_kernel_from_rref_is_keyed_by_its_last_entry(m):
    rows, piv = rref_rows(map(dict, m.data), m.cols)
    assert all(integral_as_int(row.values()) for row in rows)
    kernel = kernel_from_rref(rows, piv, range(m.cols))
    assert list(kernel) == [c for c in range(m.cols) if c not in piv]
    for f, v in kernel.items():
        assert max(v) == f and v[f] == 1 and type(v[f]) is int
        assert all(v.values()) and integral_as_int(v.values())
    assert [dense_row(v, m.cols) for v in kernel.values()] == dense_kernel(m)


@settings(max_examples=100, deadline=None)
@given(m=shaped_matrices())
def test_kernel_from_rref_matches_sympy_nullspace(sympy, m):
    rows, piv = rref_rows(map(dict, m.data), m.cols)
    got = [dense_row(v, m.cols) for v in kernel_from_rref(rows, piv, range(m.cols)).values()]
    want = [[from_sympy(x) for x in v] for v in to_sympy(sympy, m).nullspace()]
    assert got == want


@settings(max_examples=150, deadline=None)
@given(shaped_matrices(), st.data())
def test_kernel_from_rref_over_a_column_subset(m, data):
    # rows that use only some columns of a wider system, as the covers of
    # ``endo.simple_resolution`` do: the basis over those columns is the
    # basis of the matrix they form, carried to their positions
    width = m.cols + data.draw(st.integers(0, 4))
    columns = sorted(data.draw(st.permutations(range(width)))[:m.cols])
    rows = [{columns[j]: x for j, x in row} for row in m.data]
    echelon, piv = rref_rows(rows, width)
    kernel = kernel_from_rref(echelon, piv, columns)
    assert [{columns[j]: x for j, x in sparse_row(v).items()} for v in dense_kernel(m)] == \
        list(kernel.values())
    assert list(kernel) == [max(v) for v in kernel.values()]
    assert all(integral_as_int(v.values()) for v in kernel.values())


# ---------------------------------------------------- hom spaces, rank only


@pytest.mark.parametrize("pool", ["A3", "D4", "K4"])
def test_hom_dim_matches_hom_basis(pool):
    mods = (kronecker_window(4) if pool == "K4"
            else indecomposables(named_diagram(pool)))
    for _, m in mods:
        for _, n in mods:
            basis = homsolve.hom_basis(m, n)
            assert homsolve.hom_dim(m, n) == len(basis)
            # blocks cut from sparse kernel vectors are stored as the
            # public constructor stores them
            assert all(b == validated(b) for h in basis for b in h.blocks.values())


# ----------------------------------- the sparse matrix vs the dense reference
# zeros, transpose, stacking, products and column selection wrap their rows
# without the public constructor's sorting and conversion; each result must
# be stored as that constructor stores it, and hold the entries the dense
# reference computes.


def validated(m):
    """``m`` after a check of the storage invariants (ascending columns
    within range, no explicit zero, no integral ``Fraction``), rebuilt
    through the public constructor."""
    for row in m.data:
        assert [j for j, _ in row] == sorted({j for j, _ in row})
        assert all(0 <= j < m.cols for j, _ in row)
        assert all(x and (type(x) is int or x.denominator != 1) for _, x in row)
    assert len(m.data) == m.rows
    return RatMatrix(m.data, m.cols)


def test_empty_shapes_keep_their_width():
    for r, c in [(0, 0), (0, 3), (3, 0)]:
        m = RatMatrix.zeros(r, c)
        assert m.shape == (r, c) and m == validated(m)
        t = m.transpose()
        assert t.shape == (c, r) and t == validated(t)
        assert t.data == [[] for _ in range(c)]
    assert RatMatrix.vstack([RatMatrix.zeros(0, 2), RatMatrix.zeros(0, 2)]).shape == (0, 2)
    assert RatMatrix.vstack([RatMatrix.zeros(2, 0), RatMatrix.zeros(1, 0)]).shape == (3, 0)
    assert RatMatrix.hstack([RatMatrix.zeros(2, 0), RatMatrix.zeros(2, 0)]).shape == (2, 0)
    assert RatMatrix.hstack([RatMatrix.zeros(0, 2), RatMatrix.zeros(0, 1)]).shape == (0, 3)
    assert (RatMatrix.zeros(2, 0) @ RatMatrix.zeros(0, 3)) == RatMatrix.zeros(2, 3)
    assert RatMatrix.block_diagonal([RatMatrix.zeros(0, 2), RatMatrix.zeros(1, 0)]).shape == (1, 2)
    with pytest.raises(ValueError):
        mat([[1, 2]]).columns([0, 0])


@settings(max_examples=200, deadline=None)
@given(shaped_matrices(), shaped_matrices(), st.data())
def test_internal_results_equal_validated_construction(m, n, data):
    r, k = m.shape
    a, b = dense(m), dense(n)
    same = mat([[x + 1 for x in row] for row in a], k)
    # n cut or padded to k rows, so that m @ rhs is defined
    rhs_rows = b[:k] + [[F(1)] * n.cols] * max(0, k - n.rows)
    rhs = mat(rhs_rows, n.cols)
    idx = data.draw(st.permutations(range(k)))[:data.draw(st.integers(0, k))]
    results = {
        "zeros": (RatMatrix.zeros(r, k), [[F(0)] * k for _ in range(r)]),
        "transpose": (m.transpose(), [[a[i][j] for i in range(r)] for j in range(k)]),
        "vstack": (RatMatrix.vstack([m, same, RatMatrix.zeros(0, k)]), a + dense(same)),
        "hstack": (RatMatrix.hstack([m, same, RatMatrix.zeros(r, 0)]),
                   [x + y for x, y in zip(a, dense(same))]),
        "block_diagonal": (RatMatrix.block_diagonal([m, n]),
                           [row + [F(0)] * n.cols for row in a]
                           + [[F(0)] * k + row for row in b]),
        "columns": (m.columns(idx), [[row[j] for j in idx] for row in a]),
        "matmul": (m @ rhs, [[sum((row[t] * rhs_rows[t][j] for t in range(k)), F(0))
                              for j in range(n.cols)] for row in a]),
        "cokernel_projection": (homsolve.cokernel_projection(m)[1], None),
    }
    for name, (got, want) in results.items():
        assert got == validated(got), name
        if want is not None:
            assert dense(got) == want and got.rows == len(want), name
    # the echelon: rref, rank and kernel_basis against the dense oracle
    R, piv = m.rref()
    assert (dense_rref(R, piv, m), piv) == gauss_jordan(a, k)
    assert m.rank() == len(piv)
    assert [dense_row(v, k) for v in m.kernel_basis().values()] == dense_kernel(m)


# ------------------------------------------- the reference helpers vs sympy


def to_sympy(sympy, m):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator)
                                         for row in dense(m) for x in row])


def from_sympy(x):
    return F(int(x.p), int(x.q))


def sympy_solution(sympy, m, rhs):
    """sympy's parametric solution with every parameter 0, or None."""
    try:
        sol, params = to_sympy(sympy, m).gauss_jordan_solve(
            sympy.Matrix(m.rows, 1, [sympy.Rational(v.numerator, v.denominator) for v in rhs]))
    except ValueError:  # no solution
        return None
    sol = sol.subs({t: 0 for t in params})
    return [from_sympy(sol[j]) for j in range(m.cols)]


@settings(max_examples=150, deadline=None)
@given(m=shaped_matrices(), data=st.data())
def test_reference_helpers_match_sympy(sympy, m, data):
    # solve pins the free variables to 0, on consistent right-hand sides
    # m @ x and on arbitrary ones, which are often inconsistent
    x = data.draw(st.lists(sparse_rat, min_size=m.cols, max_size=m.cols), label="x")
    y = data.draw(st.lists(sparse_rat, min_size=m.rows, max_size=m.rows), label="y")
    for rhs in (apply(m, x), y):
        assert solve(m, rhs) == sympy_solution(sympy, m, rhs)
    # image_basis: the nonzero rows of sympy's rref of the transpose
    R, piv = to_sympy(sympy, m).T.rref()
    assert image_basis(m) == [[from_sympy(R[i, j]) for j in range(m.rows)]
                              for i in range(len(piv))]
    # identity and inverse
    assert dense(identity(m.cols)) == [[from_sympy(v) for v in row]
                                       for row in sympy.eye(m.cols).tolist()]
    if m.rows == m.cols:
        if to_sympy(sympy, m).det() == 0:
            with pytest.raises(ValueError, match="singular"):
                inverse(m)
        else:
            assert dense(inverse(m)) == [[from_sympy(v) for v in row]
                                         for row in to_sympy(sympy, m).inv().tolist()]
