import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from reference import (
    canonical_modules,
    ext1_dim as generic_ext1,
    is_injective,
    is_left_approximation,
    is_surjective,
    kernel,
    projective_cover_parts,
    projective_dimension,
    projective_resolution,
    simple,
)
from tiltquiver import homsolve, rep_a
from tiltquiver.homsolve import (
    end_dim,
    hom_basis,
    hom_dim,
    minimal_left_approximation,
)
from tiltquiver.quiver_core import named_diagram, orientations, parse_quiver
from tiltquiver.rep_a import (
    Rep,
    exchange_sequence,
    ext1_dim,
    indecomposables,
    injective,
    kronecker_window,
    projective,
    reflect,
    tau,
    tau_inverse,
)

A2 = named_diagram("A2")          # 0 -> 1
A3 = named_diagram("A3")          # 0 -> 1 -> 2
KRON = named_diagram("K")         # 0 => 1


def dv(rep):
    return rep.dim_vector()


# ------------------------------------------------------------ canonical


def test_canonical_dims_a2():
    P, I, S = canonical_modules(A2)
    assert dv(P[0]) == (1, 1) and dv(P[1]) == (0, 1)
    assert dv(I[0]) == (1, 0) and dv(I[1]) == (1, 1)
    assert dv(S[0]) == (1, 0) and dv(S[1]) == (0, 1)


def test_canonical_dims_kronecker():
    assert dv(projective(KRON, 0)) == (1, 2)
    assert dv(injective(KRON, 1)) == (2, 1)


def test_projective_counts_paths():
    q = parse_quiver("vertices 1 2 3 4\narrow a 1 2\narrow b 1 3\narrow c 2 4\narrow d 3 4\n")
    # two paths from 1 to the sink 4
    assert dv(projective(q, 1)) == (1, 1, 1, 2)
    assert dv(injective(q, 4)) == (2, 1, 1, 1)


# ------------------------------------------------------------ hom / ext


def test_hom_dims_a2():
    P, _, S = canonical_modules(A2)
    assert hom_dim(P[1], P[0]) == 1
    assert hom_dim(P[0], P[1]) == 0
    assert hom_dim(P[0], P[0]) == 1
    assert hom_dim(S[0], P[1]) == 0


def test_hom_identity_present():
    P, _, _ = canonical_modules(A3)
    for v in A3.vertices:
        basis = hom_basis(P[v], P[v])
        assert len(basis) == 1
        b = basis[0].blocks
        # the single basis morphism is a scalar multiple of the identity
        for s, blk in b.items():
            if blk.rows:
                assert blk == blk.transpose()


def test_ext_a2():
    P, _, S = canonical_modules(A2)
    assert ext1_dim(S[0], P[1]) == 1
    assert ext1_dim(P[0], S[0]) == 0
    assert ext1_dim(P[1], P[0]) == 0


def test_ext_a3_intervals():
    _, _, S = canonical_modules(A3)
    assert ext1_dim(S[0], S[1]) == 1
    assert ext1_dim(S[1], S[0]) == 0
    assert ext1_dim(S[0], S[2]) == 0


def test_hom_a3_projective_to_quotient():
    # full projective onto its length-two quotient
    P, _, _ = canonical_modules(A3)
    from tiltquiver.exactlin import RatMatrix
    quot = Rep(A3, (1, 1, 0), {
        "e0": RatMatrix([[1]]),
        "e1": RatMatrix.zeros(0, 1),
    })
    assert hom_dim(P[0], quot) == 1
    assert ext1_dim(quot, P[0]) == 0


# ------------------------------------------------------------ reflection


def test_reflect_a2_examples():
    P, _, S = canonical_modules(A2)
    r = reflect(P[0], 1)  # sink of 0 -> 1
    assert dv(r) == (1, 0)
    z = reflect(S[1], 1)
    assert z.is_zero()
    # at the source the other functor applies and kills the projective top
    assert dv(reflect(P[0], 0)) == (0, 1)


def test_reflect_source_and_sink_validation():
    q = parse_quiver("vertices 1 2 3\narrow a 1 2\narrow b 2 3\n")
    m = projective(q, 1)
    with pytest.raises(ValueError):
        reflect(m, 2)  # neither sink nor source


def test_reflect_kronecker_doubles():
    # reflecting the simple at the source picks up both arrows
    s = simple(KRON, 1)         # dim (0,1), projective here
    r = reflect(s, 0)
    assert dv(r) == (2, 1)
    assert {(a.source, a.target) for a in r.quiver.arrows} == {(1, 0)}


def test_reflect_round_trip():
    for m in [projective(A3, 0), simple(A3, 1), injective(A3, 2)]:
        back = reflect(reflect(m, 2), 2)  # 2 is the sink, then a source
        assert dv(back) == dv(m)
        iso = hom_basis(m, back)
        assert len(iso) == 1 and is_injective(iso[0]) and is_surjective(iso[0])


# ------------------------------------------------------------ translate


def test_tau_examples_a2():
    P, I, S = canonical_modules(A2)
    assert dv(tau_inverse(P[1])) == (1, 0)
    assert tau(P[0]).is_zero() and tau(P[1]).is_zero()
    assert tau_inverse(I[0]).is_zero() and tau_inverse(I[1]).is_zero()
    assert dv(tau(S[0])) == (0, 1)


def test_tau_kronecker_dims():
    s = simple(KRON, 1)
    assert dv(tau_inverse(s)) == (2, 3)
    assert dv(tau_inverse(tau_inverse(s))) == (4, 5)
    i = injective(KRON, 0)
    assert dv(tau(i)) == (3, 2)


def test_ar_formula_a3():
    pool = [rep for _, rep in indecomposables(A3)]
    P, _, _ = canonical_modules(A3)
    proj_dims = {dv(P[v]) for v in A3.vertices}
    for x, y in itertools.product(pool, repeat=2):
        if dv(x) in proj_dims:
            continue
        assert ext1_dim(x, y) == hom_dim(y, tau(x)), (dv(x), dv(y))


def test_euler_consistency_d4():
    q = named_diagram("D4")
    pool = [rep for _, rep in indecomposables(q)]
    for x, y in itertools.product(pool, repeat=2):
        lhs = hom_dim(x, y) - ext1_dim(x, y)
        assert lhs == q.euler_form(dv(x), dv(y))


# ------------------------------------------------------------ enumeration


def test_indecomposables_counts():
    assert len(indecomposables(A2)) == 3
    assert len(indecomposables(A3)) == 6
    assert len(indecomposables(named_diagram("D4"))) == 12


def test_indecomposables_a3_are_intervals():
    dims = [iid.key for iid, _ in indecomposables(A3)]
    intervals = sorted(
        (tuple(1 if lo <= i <= hi else 0 for i in range(3)), )[0]
        for lo in range(3) for hi in range(lo, 3)
    )
    assert sorted(dims) == intervals


def test_indecomposables_disconnected():
    q = named_diagram("A3").delete_vertex(1)
    got = indecomposables(q)
    assert [iid.key for iid, _ in got] == [(0, 1), (1, 0)]


def test_indecomposables_rejects_kronecker():
    with pytest.raises(ValueError):
        indecomposables(KRON)


def test_indec_ids_and_sorting():
    items = indecomposables(A2)
    assert [str(iid) for iid, _ in items] == ["(0,1)", "(1,0)", "(1,1)"]


def test_kronecker_window():
    win = kronecker_window(1)
    assert [(str(i), dv(r)) for i, r in win] == [
        ("P0", (0, 1)), ("P1", (1, 2)), ("I0", (1, 0)), ("I1", (2, 1)),
    ]
    for _, r in kronecker_window(3):
        assert ext1_dim(r, r) == 0  # rigid
    with pytest.raises(ValueError):
        kronecker_window(-1)


# ------------------------------------------------------------ approximation


def caches(x, pool):
    """Fresh Hom bases of x into the pool, and the radical coordinates
    of the pool maps over them."""
    hom_x = [hom_basis(x, P) for P in pool]
    return hom_x, lambda j, i: homsolve.radical_coordinates(
        x, hom_x[j], hom_basis(pool[j], pool[i]), hom_x[i])


def test_minimal_approx_a2():
    P, _, _ = canonical_modules(A2)
    e, f = homsolve.approximation_map(
        P[1], [P[0]], minimal_left_approximation(*caches(P[1], [P[0]])))
    assert dv(e) == (1, 1) and is_injective(f)
    # the injective I_0 has no map into P_1: the approximation is empty
    assert minimal_left_approximation(*caches(injective(A2, 0), [P[1]])) == []


def test_minimal_approx_multiplicity_formula_matches_drop_test():
    P, _, S = canonical_modules(A3)
    pool = [P[0], P[1]]
    comps = minimal_left_approximation(*caches(S[2], pool))
    assert [(i, ) for i, _ in comps] == [(1, )]  # only P 0->1->2 restricted copy
    assert is_left_approximation(S[2], comps, pool)
    # dropping the single component must break the property
    assert not is_left_approximation(S[2], [], pool)


def test_exchange_a2():
    P, _, _ = canonical_modules(A2)
    got = exchange_sequence(P[1], [P[0]], *caches(P[1], [P[0]]))
    assert got is not None
    e, y = got
    assert dv(e) == (1, 1) and dv(y) == (1, 0)
    assert ext1_dim(y, P[1]) == 1
    # injective with no maps into the pool: no sequence
    assert exchange_sequence(injective(A2, 0), [P[1]], *caches(injective(A2, 0), [P[1]])) is None


def test_exchange_a3():
    P, _, _ = canonical_modules(A3)
    got = exchange_sequence(P[2], [P[0], P[1]], *caches(P[2], [P[0], P[1]]))
    assert got is not None
    e, y = got
    assert dv(e) == (0, 1, 1) and dv(y) == (0, 1, 0)


# ------------------------------------------------- generic machinery checks


def test_projective_cover_and_syzygy():
    P, _, S = canonical_modules(A2)
    cov, tags, cover = projective_cover_parts(S[0])
    assert tags == [0]
    assert dv(cov) == (1, 1)
    om, _ = kernel(cover)
    assert dv(om) == (0, 1)
    assert projective_resolution(S[0]) == [[0], [1]]
    assert projective_dimension(S[0]) == 1
    assert projective_dimension(P[0]) == 0


def test_generic_ext_matches_euler_version():
    pool = [rep for _, rep in indecomposables(A3)]
    for x, y in itertools.product(pool, repeat=2):
        assert generic_ext1(x, y) == ext1_dim(x, y)


def test_end_dims_on_pool():
    for _, rep in indecomposables(named_diagram("D4")):
        assert end_dim(rep) == 1


# ---------------------------------------------------------------------------
# engine checks: exit 2 under python and python -O

KNIT_FAULTS = {
    # the A_n root count is off by one, so the knitted total disagrees
    "root-count": ("rep_a._ROOT_COUNTS['A'] = lambda n: n * (n + 1) // 2 + 1\n",
                   "engine error: knitted 6 indecomposables, expected 7"),
    # the inverse translate returns its input, so a dimension vector repeats
    "repeated-dims": ("rep_a.tau_inverse = lambda m: m\n",
                      "engine error: dimension vector collision at"),
}


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("fault", sorted(KNIT_FAULTS))
def test_knitting_fault_is_an_engine_error(fault, flags):
    patch, message = KNIT_FAULTS[fault]
    script = ("import sys\n"
              "from tiltquiver import cli, rep_a\n"
              + patch
              + "sys.exit(cli.main(['kquiver', '--diagram', 'A3']))\n")
    src = Path(rep_a.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *flags, "-c", script],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert message in proc.stderr


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_translates_return_to_the_original_quiver(name):
    # each reflection runs over the shared reversed quiver (Quiver.reverse_at)
    for q in orientations(name):
        for _, m in indecomposables(q):
            assert tau_inverse(m).quiver == m.quiver
            assert tau(m).quiver == m.quiver
