from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import gauss_jordan, identity, image_basis, inverse, solve
from tiltquiver import homsolve
from tiltquiver.exactlin import (
    RatMatrix,
    rref_rows,
)
from tiltquiver.quiver_core import named_diagram
from tiltquiver.rep_a import indecomposables, kronecker_window

F = Fraction


def mat(rows):
    return RatMatrix(rows)


# ---------------------------------------------------------------- basics


def test_shape_and_ragged():
    m = mat([[1, 2], [3, 4], [5, 6]])
    assert m.shape == (3, 2)
    with pytest.raises(ValueError):
        RatMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        RatMatrix([])  # width unknowable
    z = RatMatrix([], cols=4)
    assert z.shape == (0, 4)


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
    assert a.apply(v) == [F(5), F(7)]
    col = a @ RatMatrix([[x] for x in v], cols=1)
    assert [col[i, 0] for i in range(2)] == a.apply(v)


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
    assert R == mat([[1, 2, 0], [0, 0, 1], [0, 0, 0]])


def test_rref_fractions_exact():
    m = mat([[F(1, 3), F(1, 7)], [F(2, 5), F(3, 11)]])
    R, piv = m.rref()
    assert piv == [0, 1]
    assert R == identity(2)


def test_kernel_known():
    # x + 2y + z = 0, z = 0  ->  kernel spanned by (-2, 1, 0)
    m = mat([[1, 2, 1], [0, 0, 1]])
    ker = m.kernel_basis()
    assert ker == [[F(-2), F(1), F(0)]]
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
    sys = mat([[0, 1]])
    assert sys.rank() == 1
    assert sys.kernel_basis() == [[F(1), F(0)]]
    # reversed direction Hom(S1, P1): equation f1 = 0 -> also need
    # compatibility through the arrow: 1*f1 = f2*0 gives f1 = 0
    sys2 = mat([[1, 0]])
    assert sys2.kernel_basis() == [[F(0), F(1)]]


# ---------------------------------------------------------- properties

rat = st.fractions(
    min_value=-5, max_value=5, max_denominator=7
)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(rat, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(RatMatrix)
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
    for v in ker:
        assert all(x == 0 for x in m.apply(v))


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_solve_round_trip(m, data):
    x = data.draw(
        st.lists(rat, min_size=m.cols, max_size=m.cols), label="x"
    )
    rhs = m.apply(x)
    got = solve(m, rhs)
    assert got is not None
    assert m.apply(got) == rhs


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_idempotent(m):
    R, piv = m.rref()
    R2, piv2 = R.rref()
    assert R2 == R and piv2 == piv


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
        B = RatMatrix(basis).transpose()  # columns = basis vectors
        for j in range(m.cols):
            col = [m[i, j] for i in range(m.rows)]
            assert solve(B, col) is not None


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
    return RatMatrix(data, cols=cols)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@settings(max_examples=300, deadline=None)
@given(shaped_matrices())
def test_rref_matches_dense_reference(m):
    R, piv = m.rref()
    want, want_piv = gauss_jordan(m.data, m.cols)
    assert R.shape == m.shape
    assert R.data == want  # every row, the zero rows included
    assert piv == want_piv
    assert all(type(x) is Fraction for row in R.data for x in row)


@settings(max_examples=150, deadline=None)
@given(m=shaped_matrices())
def test_rref_matches_sympy(sympy, m):
    entries = [sympy.Rational(x.numerator, x.denominator)
               for row in m.data for x in row]
    R, piv = sympy.Matrix(m.rows, m.cols, entries).rref()
    want = [[F(int(R[i, j].p), int(R[i, j].q)) for j in range(m.cols)]
            for i in range(m.rows)]
    got, got_piv = m.rref()
    assert got.data == want
    assert got_piv == list(piv)


@settings(max_examples=100, deadline=None)
@given(shaped_matrices())
def test_rank_kernel_match_dense_reference(m):
    R, piv = gauss_jordan(m.data, m.cols)
    want = []  # one vector per free column, as the dense routine gave it
    for f in (c for c in range(m.cols) if c not in piv):
        v = [F(0)] * m.cols
        v[f] = F(1)
        for i, p in enumerate(piv):
            v[p] = -R[i][f]
        want.append(v)
    assert m.rank() == len(piv)
    assert m.kernel_basis() == want


def test_rref_rows_sparse_input():
    # [4 0 2; 0 0 0; 2 1/3 0] -> [1 0 1/2; 0 1 -3]
    rows, piv = rref_rows([{2: F(2), 0: 4}, {}, {0: 2, 1: F(1, 3), 2: 0}], 3)
    assert piv == [0, 1]
    assert rows == [{0: F(1), 2: F(1, 2)}, {1: F(1), 2: F(-3)}]
    assert all(type(x) is Fraction for row in rows for x in row.values())
    with pytest.raises(ValueError):
        rref_rows([{3: 1}], 3)


# ---------------------------------------------------- hom spaces, rank only


@pytest.mark.parametrize("pool", ["A3", "D4", "K4"])
def test_hom_dim_matches_hom_basis(pool):
    mods = (kronecker_window(4) if pool == "K4"
            else indecomposables(named_diagram(pool)))
    for _, m in mods:
        for _, n in mods:
            assert homsolve.hom_dim(m, n) == len(homsolve.hom_basis(m, n))


# ------------------------------------------- results built without checks
# zeros, transpose, stacking, products and rref wrap their rows without
# the public constructor's conversion and width check; each result must
# be what that constructor would have built.


def validated(m):
    """``m`` rebuilt through the public, checking constructor."""
    assert all(type(x) is Fraction for row in m.data for x in row)
    assert len({id(row) for row in m.data}) == m.rows  # no shared rows
    return RatMatrix(m.data, cols=m.cols)


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


@settings(max_examples=150, deadline=None)
@given(shaped_matrices(), shaped_matrices())
def test_internal_results_equal_validated_construction(m, n):
    r, k = m.shape
    same = RatMatrix([[x + 1 for x in row] for row in m.data], cols=k)
    # n cut or padded to k rows, so that m @ rhs is defined
    rhs = RatMatrix(n.data[:k] + [[F(1)] * n.cols] * max(0, k - n.rows), cols=n.cols)
    results = {
        "zeros": RatMatrix.zeros(r, k),
        "transpose": m.transpose(),
        "rref": m.rref()[0],
        "vstack": RatMatrix.vstack([m, same, RatMatrix.zeros(0, k)]),
        "hstack": RatMatrix.hstack([m, same, RatMatrix.zeros(r, 0)]),
        "block_diagonal": RatMatrix.block_diagonal([m, n]),
        "columns": m.columns(list(range(k))[::-1]),
        "matmul": m @ rhs,
    }
    for name, got in results.items():
        assert got == validated(got), name
    # and each holds the entries its definition gives
    assert results["transpose"].data == [[m.data[i][j] for i in range(r)] for j in range(k)]
    assert results["vstack"].data == m.data + same.data
    assert results["hstack"].data == [a + b for a, b in zip(m.data, same.data)]
    assert results["columns"].data == [row[::-1] for row in m.data]
    bd = results["block_diagonal"]
    assert bd.shape == (r + n.rows, k + n.cols)
    assert [row[:k] for row in bd.data[:r]] == m.data
    assert [row[k:] for row in bd.data[r:]] == n.data
    assert all(x == 0 for row in bd.data[:r] for x in row[k:])
    assert all(x == 0 for row in bd.data[r:] for x in row[:k])
    assert results["matmul"].data == [[sum((row[t] * rhs.data[t][j] for t in range(k)), F(0))
                           for j in range(rhs.cols)] for row in m.data]


# ------------------------------------------- the reference helpers vs sympy


def to_sympy(sympy, m):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator)
                                         for row in m.data for x in row])


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
    for rhs in (m.apply(x), y):
        assert solve(m, rhs) == sympy_solution(sympy, m, rhs)
    # image_basis: the nonzero rows of sympy's rref of the transpose
    R, piv = to_sympy(sympy, m).T.rref()
    assert image_basis(m) == [[from_sympy(R[i, j]) for j in range(m.rows)]
                              for i in range(len(piv))]
    # identity and inverse
    assert identity(m.cols).data == [[from_sympy(v) for v in row]
                                     for row in sympy.eye(m.cols).tolist()]
    if m.rows == m.cols:
        if to_sympy(sympy, m).det() == 0:
            with pytest.raises(ValueError, match="singular"):
                inverse(m)
        else:
            assert inverse(m).data == [[from_sympy(v) for v in row]
                                       for row in to_sympy(sympy, m).inv().tolist()]
