"""The Auslander-Reiten quiver of a duplicated Dynkin algebra, knitted.

For a Dynkin quiver the duplicated algebra of ``dup`` is representation-
directed: an indecomposable is fixed by its dimension vector (Happel-
Ringel 1982), and the AR quiver is knitted from the projectives (Assem-
Simson-Skowronski vol. 1, IV.4): dim tau^-1 X is the sum over X's
successors, tau^-1 of its non-injective predecessors and the projectives
whose radical has X as a summand, minus dim X.  Dimension vectors list
the top layer, then the bottom, as ``Rep.dim_vector`` over
``dup._layout``: P_(b,a) = (0, P_a) has radical the P_(b,c) over the
arrows a -> c, the bar P_(t,a) = (P_a, I_a) one indecomposable radical,
and (dim I_s)_v = (dim P_v)_s.  The hammock of X (Ringel-Vossieck 1987)
gives dim Hom(X, Y) with no linear algebra: in topological order, h(X) =
1 and h(Y) = the sum of h over Y's predecessors, minus h(tau Y) if Y is
not projective.  pd X <= 1 iff Hom(DA, tau X) = 0, and then dim Ext^1(X,
Y) = dim Hom(Y, tau X) (ASS IV.2).  Dynkin only: beyond, it never ends.
"""

from __future__ import annotations

from functools import cache

from .quiver_core import Quiver, classify


class ARTable:
    """The knitted AR quiver: ``dims`` in topological order, ``index`` by
    dimension vector, and per module its predecessors and ``tau`` (-1 for
    a projective); each hammock ``row`` is built once, on demand."""

    def __init__(self, q: Quiver) -> None:
        if not all(classify(c).is_dynkin() for c in q.components()):
            raise ValueError("the Auslander-Reiten table needs Dynkin components")
        n, vs = q.n, q.vertices
        paths = [[len(q.paths_between(a, v)) for v in vs] for a in vs]
        proj = ([tuple(paths[a]) + tuple(row[a] for row in paths) for a in range(n)]
                + [(0,) * n + tuple(paths[a]) for a in range(n)])
        rad = ([[tuple(x - (k == a) for k, x in enumerate(proj[a]))] for a in range(n)]
               + [[proj[n + q.v_pos[arr.target]] for arr in q.out_arrows(v)] for v in vs])
        injective = {tuple(p[s] for p in proj) for s in range(2 * n)}
        dims, index, preds, tau = self.dims, self.index, self.preds, self.tau = [], {}, [], []
        waiting, pending, tau_inv = list(range(2 * n)), [], {}
        while waiting or pending:
            ready = [s for s in waiting if all(d in index for d in rad[s])]
            waiting = [s for s in waiting if s not in ready]
            new = [(proj[s], [index[d] for d in rad[s]], -1) for s in ready]
            for x in pending:
                succ = [tau_inv.get(z) for z in preds[x] if dims[z] not in injective]
                succ += [index.get(p) for p, r in zip(proj, rad) for d in r if d == dims[x]]
                if None not in succ:
                    new.append((tuple(sum(c) - v for c, v in zip(
                        zip(*(dims[z] for z in succ)), dims[x])), succ, x))
            if not new:
                raise RuntimeError("knitting the Auslander-Reiten quiver stalled")
            for d, ps, t in new:
                if d in index or not any(d) or min(d) < 0:
                    raise RuntimeError(f"knitting the Auslander-Reiten quiver met {d} again")
                if t >= 0:
                    pending.remove(t)
                    tau_inv[t] = len(dims)
                if d not in injective:
                    pending.append(len(dims))
                index[d] = len(dims)
                dims.append(d)
                preds.append(ps)
                tau.append(t)
        self.injectives = [index[d] for d in injective]
        self.bars = {index[p] for p in proj[:n]}
        self._rows: dict[int, list[int]] = {}

    def row(self, x: int) -> list[int]:
        """The hammock of module x: dim Hom(x, y) at each y, then a 0."""
        got = self._rows.get(x)
        if got is None:
            got = [0] * (len(self.dims) + 1)
            got[x] = 1
            for y in range(x + 1, len(self.dims)):
                got[y] = sum(got[z] for z in self.preds[y]) - got[self.tau[y]]
            if min(got) < 0:
                raise RuntimeError(f"negative hammock value from {self.dims[x]}")
            self._rows[x] = got
        return got

    def ext1(self, x: int, y: int) -> int:
        """dim Ext^1(module x, module y) = dim Hom(y, tau x), for pd x <= 1."""
        return self.row(y)[self.tau[x]]

    def pool_dims(self) -> list[tuple[int, ...]]:
        """The non-bar indecomposables of projective dimension at most 1."""
        return [d for x, d in enumerate(self.dims) if x not in self.bars and not any(
            self.row(i)[self.tau[x]] for i in self.injectives)]


@cache
def ar_table(q: Quiver) -> ARTable:
    """The AR table of q's duplicated algebra (Dynkin only), knitted once."""
    return ARTable(q)
