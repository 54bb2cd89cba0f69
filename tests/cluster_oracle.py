"""The exchange graph of a cluster algebra of finite type, by mutation.

An outside oracle for both exchange graphs of ``tiltquiver``: it uses the
standard library only and imports nothing from the package.  Input is an
acyclic quiver as plain data, its vertices and its arrows as (source,
target) pairs.

Fomin-Zelevinsky mutation with principal coefficients (Cluster algebras
IV, 2007) starts from the seed whose exchange matrix B is the signed
adjacency matrix of the quiver, b_uv = #(u -> v) - #(v -> u), whose
coefficient rows are the identity, and whose cluster variables have the
d-vectors -alpha_v.  Mutation at k sends the d-vector d_k to

    -d_k + max(sum_i [b_ik]+ d_i, sum_i [-b_ik]+ d_i)

(componentwise maximum), and every column of the extended matrix by the
matrix mutation rule.  In finite type a cluster variable is determined by
its d-vector, which is an almost positive root: -alpha_v, or the dimension
vector of an indecomposable module (Fomin-Zelevinsky, Cluster algebras
II; Buan-Marsh-Reineke-Reiten-Todorov, Clusters and seeds in acyclic
cluster algebras).  Under the duplicated algebra's correspondence
(Assem-Bruestle-Schiffler-Todorov, Cluster categories and duplicated
algebras), -alpha_v is the shifted module W_v and a positive root the
embedded module of that dimension vector.

The c-vector c_k of a seed, column k of its coefficient rows, is either
nonnegative or nonpositive (sign coherence).  An arc leaves the seed along
k when c_k is negative; the variable it exchanges away is x_k, the one it
brings in x_k', and its middle term is the monomial of the B+ column, the
variables x_i with multiplicity [b_ik]+.

In finite type a seed is determined by its cluster, so the oracle checks
its own mutation: at every cluster it reaches again, the exchange matrix
and the coefficient rows, keyed by d-vector, must be those it stored at
the first visit, else ``ValueError``.
"""

from __future__ import annotations

from collections import Counter, deque

DVector = tuple[int, ...]
Cluster = frozenset[DVector]


def _mutate_matrix(m: list[list[int]], k: int) -> list[list[int]]:
    """Matrix mutation at column k of the extended exchange matrix m."""
    out = []
    for i, row in enumerate(m):
        if i == k:
            out.append([-x for x in row])
            continue
        bik = row[k]
        sign = 1 if bik > 0 else -1
        out.append([-x if j == k else x + sign * max(0, bik * m[k][j])
                    for j, x in enumerate(row)])
    return out


def _mutate_d(ds: list[DVector], b: list[list[int]], k: int) -> DVector:
    """The d-vector that replaces ds[k] under mutation at k."""
    n = len(ds)
    plus = [sum(max(0, b[i][k]) * ds[i][v] for i in range(n)) for v in range(n)]
    minus = [sum(max(0, -b[i][k]) * ds[i][v] for i in range(n)) for v in range(n)]
    return tuple(max(p, q) - d for p, q, d in zip(plus, minus, ds[k]))


def _keyed(ds: list[DVector], m: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """The extended exchange matrix with B's rows and every column put in
    the order of the seed's d-vectors, the coefficient rows after B."""
    n = len(ds)
    order = sorted(range(n), key=ds.__getitem__)
    return tuple(tuple(m[i][j] for j in order) for i in order + list(range(n, 2 * n)))


def exchange_graph(vertices: list, arrows: list[tuple]) -> tuple[
        set[Cluster], dict[tuple[Cluster, Cluster], tuple[DVector, DVector, Counter]]]:
    """Every cluster, as the set of its d-vectors (entries in the order of
    ``vertices``), and every arc (source cluster, target cluster) ->
    (d-vector exchanged away, d-vector brought in, middle-term d-vectors
    with multiplicity)."""
    n = len(vertices)
    pos = {v: i for i, v in enumerate(vertices)}
    b = [[0] * n for _ in range(n)]
    for s, t in arrows:
        b[pos[s]][pos[t]] += 1
        b[pos[t]][pos[s]] -= 1
    ds = [tuple(-int(i == v) for i in range(n)) for v in range(n)]
    start = (ds, b + [[int(i == j) for j in range(n)] for i in range(n)])
    seeds = {frozenset(ds): _keyed(*start)}
    arcs: dict[tuple[Cluster, Cluster], tuple[DVector, DVector, Counter]] = {}
    todo = deque([start])
    while todo:
        ds, m = todo.popleft()
        here = frozenset(ds)
        for k in range(n):
            c = [m[n + i][k] for i in range(n)]
            if all(x >= 0 for x in c) == all(x <= 0 for x in c):
                raise ValueError(f"c-vector {c} is not sign-coherent")
            new = ds[:k] + [_mutate_d(ds, m, k)] + ds[k + 1:]
            there = frozenset(new)
            if any(x < 0 for x in c):
                middle = Counter({ds[i]: m[i][k] for i in range(n) if m[i][k] > 0})
                arcs[(here, there)] = (ds[k], new[k], middle)
            mutated = _mutate_matrix(m, k)
            if there not in seeds:
                seeds[there] = _keyed(new, mutated)
                todo.append((new, mutated))
            elif seeds[there] != _keyed(new, mutated):
                raise ValueError(f"cluster {sorted(there)} reached with another seed")
    return set(seeds), arcs
