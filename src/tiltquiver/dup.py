"""Modules over the one-step duplication of a path algebra.

For a path algebra ``A`` of an acyclic quiver, the duplicated algebra is
the triangular matrix algebra ``[[A, 0], [DA, A]]`` with ``DA`` the
minimal injective cogenerator viewed as a bimodule.  Its left modules
are triples ``(X, Y, phi)``: two representations of the same quiver (a
"top" ``X`` and a "bottom" ``Y``) plus a connecting A-map
``phi: DA (x) X -> Y``.

The bottom copy of the module category of ``A`` embeds as the triples
``(0, Y, 0)``; the extra objects of interest here are, per vertex ``a``:

* the projective-injective ``(P_a, I_a, mult)`` ("bar" projective),
* the shifted module obtained by applying the inverse translate to the
  embedded injective at ``a``.

Everything homological (hom spaces, Ext^1, covers, envelopes, exchange
sequences) is delegated to :mod:`tiltquiver.homsolve`; this module
supplies the triple-specific structure, the Nakayama correspondence
between canonical projectives and injectives needed for the translates,
and the tilting combinatorics: enumeration of the basic tilting modules
containing all bar projectives, their exchange graph, and the checkers
the command line exposes.  Enumeration and the exchange graph run on the
one engine in :mod:`tiltquiver.tilt_a`, fed with this module's pool,
``DupContext.ext1_idx`` and an exchange-sequence certifier.

A triple is stored with one matrix per path of the quiver: for a path
``p`` from ``u`` to ``v`` the matrix ``conn[(u, p)]`` maps the top space
at ``v`` to the bottom space at ``u`` (the action of the dual-basis
element of ``p`` under ``phi``).  Storing every path makes restriction
along quiver symmetries and the hom equations purely local; only the
matrices of maximal paths enter the morphism solver, since the others
are forced by the two shuffle relations

    conn[(u, p)] . X_alpha = conn[(u, q)]      p = q then alpha (last)
    Y_alpha . conn[(u, p)] = conn[(w, q)]      p = alpha then q (first)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

from . import homsolve, rep_a, tilt_a
from .exactlin import RatMatrix
from .homsolve import SlotMap
from .quiver_core import Quiver
from .rep_a import Rep

Slot = tuple[str, int]
ConnKey = tuple[int, tuple[str, ...]]


# ---------------------------------------------------------------------------
# slot / label layout (one per quiver, cached)


class _Layout(NamedTuple):
    slot_keys: tuple[Slot, ...]
    labels: tuple[tuple, ...]
    ends: dict
    solver: tuple[tuple, ...]
    path_end: dict[ConnKey, int]


_LAYOUTS: dict[Quiver, _Layout] = {}


def _layout(q: Quiver) -> _Layout:
    got = _LAYOUTS.get(q)
    if got is not None:
        return got
    slot_keys = tuple(("t", v) for v in q.vertices) + tuple(("b", v) for v in q.vertices)
    labels: list[tuple] = []
    ends: dict = {}
    path_end: dict[ConnKey, int] = {}
    for a in q.arrows:
        labels.append(("t", a.aid))
        ends[("t", a.aid)] = (("t", a.source), ("t", a.target))
        labels.append(("b", a.aid))
        ends[("b", a.aid)] = (("b", a.source), ("b", a.target))
    for (u, v), paths in q.all_paths().items():
        for p in paths:
            lab = ("m", u, p)
            labels.append(lab)
            ends[lab] = (("t", v), ("b", u))
            path_end[(u, p)] = v
    solver = [lab for lab in labels if lab[0] in ("t", "b")]
    sources, sinks = set(q.sources()), set(q.sinks())
    for lab in labels:
        if lab[0] == "m" and lab[1] in sources and path_end[(lab[1], lab[2])] in sinks:
            solver.append(lab)
    lay = _Layout(slot_keys, tuple(labels), ends, tuple(solver), path_end)
    _LAYOUTS[q] = lay
    return lay


# ---------------------------------------------------------------------------
# the module class


class TripleModule(homsolve.SlotModule):
    """Module over the duplicated algebra: top/bottom reps + path matrices.

    ``dims`` maps slots ``("t", v)`` / ``("b", v)`` to dimensions; the
    structure carries one matrix per arrow in each layer and one matrix
    per path for the connecting map.
    """

    def __init__(self, quiver: Quiver, dims: dict[Slot, int],
                 top: dict[str, RatMatrix], bot: dict[str, RatMatrix],
                 conn: dict[ConnKey, RatMatrix]):
        self.quiver = quiver
        self._lay = lay = _layout(quiver)
        self.slot_keys = lay.slot_keys
        self.dims = {s: dims.get(s, 0) for s in lay.slot_keys}
        self.top = top
        self.bot = bot
        self.conn = conn
        for lab in lay.labels:
            m = self._mat(lab)
            a, b = lay.ends[lab]
            if m.shape != (self.dims[b], self.dims[a]):
                raise ValueError(
                    f"label {lab}: matrix shape {m.shape}, "
                    f"expected {(self.dims[b], self.dims[a])}"
                )

    def _mat(self, lab: tuple) -> RatMatrix:
        if lab[0] == "t":
            return self.top[lab[1]]
        if lab[0] == "b":
            return self.bot[lab[1]]
        return self.conn[(lab[1], lab[2])]

    # -- SlotModule interface ------------------------------------------

    def struct(self) -> dict:
        out: dict = {}
        for lab in self._lay.labels:
            out[lab] = self._mat(lab)
        return out

    def label_ends(self, label: tuple) -> tuple[Slot, Slot]:
        return self._lay.ends[label]

    def solver_labels(self) -> tuple[tuple, ...]:
        return self._lay.solver

    def radical_labels(self) -> tuple[tuple, ...]:
        return self._lay.labels

    def _rebuild(self, dims, struct) -> "TripleModule":
        top = {a.aid: struct[("t", a.aid)] for a in self.quiver.arrows}
        bot = {a.aid: struct[("b", a.aid)] for a in self.quiver.arrows}
        conn = {}
        for (u, v), paths in self.quiver.all_paths().items():
            for p in paths:
                conn[(u, p)] = struct[("m", u, p)]
        return TripleModule(self.quiver, dict(dims), top, bot, conn)

    # -- convenience -----------------------------------------------------

    def top_rep(self) -> Rep:
        dims = {v: self.dims[("t", v)] for v in self.quiver.vertices}
        return Rep(self.quiver, dims, self.top)

    def bottom_rep(self) -> Rep:
        dims = {v: self.dims[("b", v)] for v in self.quiver.vertices}
        return Rep(self.quiver, dims, self.bot)

    def top_dim(self) -> int:
        return sum(self.dims[("t", v)] for v in self.quiver.vertices)

    def bottom_dim(self) -> int:
        return sum(self.dims[("b", v)] for v in self.quiver.vertices)

    def validate(self) -> None:
        """Check the shuffle relations between the path matrices; raises
        ``RuntimeError`` at the first one that fails."""
        q = self.quiver
        for (u, v), paths in q.all_paths().items():
            for p in paths:
                for arr in q.out_arrows(v):
                    longer = self.conn[(u, p + (arr.aid,))]
                    if longer @ self.top[arr.aid] != self.conn[(u, p)]:
                        raise RuntimeError(
                            f"last-arrow relation fails at {(u, p)} + {arr.aid}")
                for arr in q.in_arrows(u):
                    longer = self.conn[(arr.source, (arr.aid,) + p)]
                    if self.bot[arr.aid] @ longer != self.conn[(u, p)]:
                        raise RuntimeError(
                            f"first-arrow relation fails at {arr.aid} + {(u, p)}")

    def __repr__(self) -> str:
        t = tuple(self.dims[("t", v)] for v in self.quiver.vertices)
        b = tuple(self.dims[("b", v)] for v in self.quiver.vertices)
        return f"Triple(top={t}, bottom={b})"

    # -- hooks for covers / envelopes ------------------------------------
    #
    # Projectives: the simple at bottom slot a is covered by the embedded
    # A-projective at a; the simple at top slot a by the bar projective.
    # Injectives: the simple at bottom slot a has envelope the bar
    # projective (its socle), the simple at top slot a the top-embedded
    # A-injective.

    def projective_for_slot(self, s: Slot) -> "TripleModule":
        layer, a = s
        if layer == "b":
            return embed(self.quiver, rep_a.projective(self.quiver, a))
        return bar_projective(self.quiver, a)

    def yoneda_from_generator(self, s: Slot, vec, m: "TripleModule") -> SlotMap:
        layer, a = s
        q = self.quiver
        P = self.projective_for_slot(s)
        blocks: dict[Slot, RatMatrix] = {}
        if layer == "b":
            br = m.bottom_rep()
            for w in q.vertices:
                cols = [br.path_action(a, p).apply(vec) for p in q.paths_between(a, w)]
                blocks[("b", w)] = (RatMatrix(cols, cols=m.dims[("b", w)]).transpose()
                                    if cols else RatMatrix.zeros(m.dims[("b", w)], 0))
                blocks[("t", w)] = RatMatrix.zeros(m.dims[("t", w)], 0)
            return SlotMap(P, m, blocks)
        tr = m.top_rep()
        for w in q.vertices:
            cols = [tr.path_action(a, p).apply(vec) for p in q.paths_between(a, w)]
            blocks[("t", w)] = (RatMatrix(cols, cols=m.dims[("t", w)]).transpose()
                                if cols else RatMatrix.zeros(m.dims[("t", w)], 0))
        for u in q.vertices:
            # dual-basis element of a path z: u ~> a goes to conn[(u, z)](vec)
            cols = [m.conn[(u, z)].apply(vec) for z in q.paths_between(u, a)]
            blocks[("b", u)] = (RatMatrix(cols, cols=m.dims[("b", u)]).transpose()
                                if cols else RatMatrix.zeros(m.dims[("b", u)], 0))
        return SlotMap(P, m, blocks)

    def injective_for_slot(self, s: Slot) -> "TripleModule":
        layer, a = s
        if layer == "b":
            return bar_projective(self.quiver, a)
        return embed_top(self.quiver, rep_a.injective(self.quiver, a))

    def coyoneda_from_functional(self, s: Slot, functional, m: "TripleModule") -> SlotMap:
        layer, a = s
        q = self.quiver
        J = self.injective_for_slot(s)
        blocks: dict[Slot, RatMatrix] = {}
        if layer == "t":
            zeta = RatMatrix([list(functional)], cols=m.dims[("t", a)])
            tr = m.top_rep()
            for w in q.vertices:
                rows = [(zeta @ tr.path_action(w, p)).data[0]
                        for p in q.paths_between(w, a)]
                blocks[("t", w)] = RatMatrix(rows, cols=m.dims[("t", w)])
                blocks[("b", w)] = RatMatrix.zeros(0, m.dims[("b", w)])
            return SlotMap(m, J, blocks)
        zeta = RatMatrix([list(functional)], cols=m.dims[("b", a)])
        br = m.bottom_rep()
        for u in q.vertices:
            rows = [(zeta @ br.path_action(u, z)).data[0]
                    for z in q.paths_between(u, a)]
            blocks[("b", u)] = RatMatrix(rows, cols=m.dims[("b", u)])
        for v in q.vertices:
            rows = [(zeta @ m.conn[(a, y)]).data[0] for y in q.paths_between(a, v)]
            blocks[("t", v)] = RatMatrix(rows, cols=m.dims[("t", v)])
        return SlotMap(m, J, blocks)


# ---------------------------------------------------------------------------
# constructors


def _zero_conn(q: Quiver, tdims: dict[int, int], bdims: dict[int, int]) -> dict[ConnKey, RatMatrix]:
    conn = {}
    for (u, v), paths in q.all_paths().items():
        for p in paths:
            conn[(u, p)] = RatMatrix.zeros(bdims[u], tdims[v])
    return conn


def embed(q: Quiver, m: Rep) -> TripleModule:
    """The A-module m placed in the bottom layer, zero connecting map."""
    dims = {("b", v): m.dims[v] for v in q.vertices}
    top = {a.aid: RatMatrix.zeros(0, 0) for a in q.arrows}
    conn = _zero_conn(q, {v: 0 for v in q.vertices}, m.dims)
    return TripleModule(q, dims, top, dict(m.arrow_maps), conn)


def embed_top(q: Quiver, m: Rep) -> TripleModule:
    """The A-module m placed in the top layer, zero bottom."""
    dims = {("t", v): m.dims[v] for v in q.vertices}
    bot = {a.aid: RatMatrix.zeros(0, 0) for a in q.arrows}
    conn = _zero_conn(q, m.dims, {v: 0 for v in q.vertices})
    return TripleModule(q, dims, dict(m.arrow_maps), bot, conn)


def bar_projective(q: Quiver, a: int) -> TripleModule:
    """The projective-injective triple (P_a, I_a, multiplication).

    Top basis at v: paths a ~> v.  Bottom basis at u: dual to paths
    u ~> a.  The matrix of a path p: u ~> v sends the top basis path y
    to the dual path r whenever p traverses r then y.
    """
    P = rep_a.projective(q, a)
    I = rep_a.injective(q, a)
    dims = {}
    for v in q.vertices:
        dims[("t", v)] = P.dims[v]
        dims[("b", v)] = I.dims[v]
    conn = {}
    for (u, v), paths in q.all_paths().items():
        rpaths = q.paths_between(u, a)     # bottom dual basis at u
        ypaths = q.paths_between(a, v)     # top basis at v
        for p in paths:
            m = RatMatrix.zeros(len(rpaths), len(ypaths))
            for i, r in enumerate(rpaths):
                for j, y in enumerate(ypaths):
                    if r + y == p:
                        m[i, j] = 1
            conn[(u, p)] = m
    return TripleModule(q, dims, dict(P.arrow_maps), dict(I.arrow_maps), conn)


def triple_hom(m: TripleModule, n: TripleModule) -> list[SlotMap]:
    if m.quiver != n.quiver:
        raise ValueError("modules live over different quivers")
    return homsolve.hom_basis(m, n)


def triple_hom_dim(m: TripleModule, n: TripleModule) -> int:
    return len(triple_hom(m, n))


def triple_ext1(m: TripleModule, n: TripleModule) -> int:
    if m.quiver != n.quiver:
        raise ValueError("modules live over different quivers")
    return homsolve.ext1_dim(m, n)


def triple_pd(m: TripleModule, cap: int = 6) -> int:
    return homsolve.projective_dimension(m, cap=cap)


# ---------------------------------------------------------------------------
# Nakayama correspondence on canonical projectives/injectives
#
# The translate of a triple is computed from a minimal projective
# presentation (forward) or injective copresentation (backward) by
# moving each canonical component across the Nakayama functor.  The
# component tags reuse the slot names: tag ("b", a) is the embedded
# A-projective / its image the bar module; tag ("t", a) is the bar
# module / its image the top-embedded A-injective.


def _top_blocks(h: SlotMap, q: Quiver) -> dict[int, RatMatrix]:
    return {v: h.blocks[("t", v)] for v in q.vertices}


def _bottom_blocks(h: SlotMap, q: Quiver) -> dict[int, RatMatrix]:
    return {v: h.blocks[("b", v)] for v in q.vertices}


def _nu_a_inverse(q: Quiver, a: int, b: int, u: dict[int, RatMatrix]) -> dict[int, RatMatrix]:
    """Turn a map I_a -> I_b (slotwise matrices) into P_a -> P_b.

    The coefficient of a path z: b ~> a is read off at slot b (the row
    of the trivial dual path); the result is the sum of the right
    multiplication operators by those paths.
    """
    zs = q.paths_between(b, a)
    row = u[b]          # (paths b~>b)* x (paths b~>a)*: one row, acyclic
    out: dict[int, RatMatrix] = {}
    for v in q.vertices:
        xs = q.paths_between(a, v)
        ts = q.paths_between(b, v)
        t_idx = {p: i for i, p in enumerate(ts)}
        m = RatMatrix.zeros(len(ts), len(xs))
        for k, z in enumerate(zs):
            c = row[0, k]
            if c == 0:
                continue
            for j, x in enumerate(xs):
                m[t_idx[z + x], j] += c
        out[v] = m
    return out


def _nu_a_forward(q: Quiver, a: int, b: int, f: dict[int, RatMatrix]) -> dict[int, RatMatrix]:
    """Turn a map P_a -> P_b (slotwise matrices) into I_a -> I_b."""
    zs = q.paths_between(b, a)
    col = f[a]          # (paths b~>a) x (paths a~>a): one column, acyclic
    out: dict[int, RatMatrix] = {}
    for w in q.vertices:
        ps = q.paths_between(w, a)
        qs = q.paths_between(w, b)
        p_idx = {p: i for i, p in enumerate(ps)}
        m = RatMatrix.zeros(len(qs), len(ps))
        for k, z in enumerate(zs):
            c = col[k, 0]
            if c == 0:
                continue
            for i, qq in enumerate(qs):
                m[i, p_idx[qq + z]] += c
        out[w] = m
    return out


def _zero_triple_map(src: TripleModule, dst: TripleModule) -> SlotMap:
    return SlotMap.zero(src, dst)


class _NakayamaCache:
    """Per-quiver canonical modules + hom bases between bar projectives."""

    def __init__(self, q: Quiver):
        self.q = q
        self.embedded_proj = {a: embed(q, rep_a.projective(q, a)) for a in q.vertices}
        self.bar = {a: bar_projective(q, a) for a in q.vertices}
        self.top_inj = {a: embed_top(q, rep_a.injective(q, a)) for a in q.vertices}
        self._bar_homs: dict[tuple[int, int], list[SlotMap]] = {}

    def bar_homs(self, a: int, b: int) -> list[SlotMap]:
        got = self._bar_homs.get((a, b))
        if got is None:
            got = homsolve.hom_basis(self.bar[a], self.bar[b])
            self._bar_homs[(a, b)] = got
        return got

    def lift_bar_map(self, a: int, b: int, top: dict[int, RatMatrix]) -> SlotMap:
        """The map bar_a -> bar_b with the given top layer.

        The connecting map of a bar module is invertible slot by slot,
        so the top layer determines the morphism; it is found as a
        combination of a hom basis.
        """
        basis = self.bar_homs(a, b)
        want: list[Fraction] = []
        for v in self.q.vertices:
            for row in top[v].data:
                want.extend(row)
        cols = []
        for h in basis:
            vec: list[Fraction] = []
            for v in self.q.vertices:
                for row in h.blocks[("t", v)].data:
                    vec.extend(row)
            cols.append(vec)
        mat = RatMatrix(cols, cols=len(want)).transpose()
        sol = mat.solve(want)
        if sol is None:
            raise RuntimeError("top layer does not lift to a bar morphism")
        out = _zero_triple_map(self.bar[a], self.bar[b])
        for c, h in zip(sol, basis):
            if c:
                out = out + h.scale(c)
        return out


_NAKAYAMA: dict[Quiver, _NakayamaCache] = {}


def _nakayama(q: Quiver) -> _NakayamaCache:
    got = _NAKAYAMA.get(q)
    if got is None:
        got = _NakayamaCache(q)
        _NAKAYAMA[q] = got
    return got


def _nu_inverse_component(nk: _NakayamaCache, tag_src: Slot, tag_dst: Slot,
                          h: SlotMap) -> SlotMap:
    """Move one injective component map across the inverse Nakayama functor."""
    q = nk.q
    (ls, a), (ld, b) = tag_src, tag_dst
    if ls == "b" and ld == "b":
        # bar_a -> bar_b  becomes  embedded P_a -> embedded P_b
        f = _top_blocks(h, q)
        src, dst = nk.embedded_proj[a], nk.embedded_proj[b]
        blocks = {("b", v): f[v] for v in q.vertices}
        blocks.update({("t", v): RatMatrix.zeros(0, 0) for v in q.vertices})
        return SlotMap(src, dst, blocks)
    if ls == "b" and ld == "t":
        # bar_a -> top I_b  becomes  embedded P_a -> bar_b, same matrices
        f = _top_blocks(h, q)
        src, dst = nk.embedded_proj[a], nk.bar[b]
        blocks = {("b", v): f[v] for v in q.vertices}
        blocks.update({("t", v): RatMatrix.zeros(dst.dims[("t", v)], 0)
                       for v in q.vertices})
        return SlotMap(src, dst, blocks)
    if ls == "t" and ld == "b":
        if not h.is_zero():
            raise RuntimeError("no nonzero maps exist from a top injective to a bar module")
        return _zero_triple_map(nk.bar[a], nk.embedded_proj[b])
    # top I_a -> top I_b  becomes  bar_a -> bar_b
    u = _top_blocks(h, q)
    return nk.lift_bar_map(a, b, _nu_a_inverse(q, a, b, u))


def _nu_forward_component(nk: _NakayamaCache, tag_src: Slot, tag_dst: Slot,
                          h: SlotMap) -> SlotMap:
    """Move one projective component map across the Nakayama functor."""
    q = nk.q
    (ls, a), (ld, b) = tag_src, tag_dst
    if ls == "b" and ld == "b":
        f = _bottom_blocks(h, q)
        return nk.lift_bar_map(a, b, f)
    if ls == "b" and ld == "t":
        # embedded P_a -> bar_b  becomes  bar_a -> top I_b, same matrices
        f = _bottom_blocks(h, q)
        src, dst = nk.bar[a], nk.top_inj[b]
        blocks = {("t", v): f[v] for v in q.vertices}
        blocks.update({("b", v): RatMatrix.zeros(0, src.dims[("b", v)])
                       for v in q.vertices})
        return SlotMap(src, dst, blocks)
    if ls == "t" and ld == "b":
        if not h.is_zero():
            raise RuntimeError(
                "no nonzero maps exist from a bar module to an embedded projective")
        return _zero_triple_map(nk.top_inj[a], nk.embedded_proj[b])
    f = _top_blocks(h, q)
    u = _nu_a_forward(q, a, b, f)
    src, dst = nk.top_inj[a], nk.top_inj[b]
    blocks = {("t", v): u[v] for v in q.vertices}
    blocks.update({("b", v): RatMatrix.zeros(0, 0) for v in q.vertices})
    return SlotMap(src, dst, blocks)


def _transport(nk: _NakayamaCache, g: SlotMap,
               dec_src: homsolve.SumDecomposition,
               dec_dst: homsolve.SumDecomposition,
               forward: bool) -> SlotMap:
    """Apply the (inverse) Nakayama functor to a map between canonical sums.

    Forward, a cover component tagged ("b", a) is the embedded
    A-projective and moves to the bar module; ("t", a) is the bar module
    and moves to the top-embedded injective.  Backward, an envelope
    component tagged ("b", a) is the bar module moving to the embedded
    projective; ("t", a) the top-embedded injective moving to the bar.
    """
    rule = _nu_forward_component if forward else _nu_inverse_component

    def img(tag: Slot) -> TripleModule:
        if forward:
            return nk.bar[tag[1]] if tag[0] == "b" else nk.top_inj[tag[1]]
        return nk.embedded_proj[tag[1]] if tag[0] == "b" else nk.bar[tag[1]]

    proto = nk.embedded_proj[nk.q.vertices[0]]
    srcs = [img(t) for t in dec_src.tags]
    dsts = [img(t) for t in dec_dst.tags]
    if srcs:
        S, _, s_proj = homsolve.direct_sum(srcs)
    else:
        S, s_proj = proto.zero_like(), []
    if dsts:
        D, d_incl, _ = homsolve.direct_sum(dsts)
    else:
        D, d_incl = proto.zero_like(), []
    out = SlotMap.zero(S, D)
    for l, tl in enumerate(dec_dst.tags):
        for k, tk in enumerate(dec_src.tags):
            block = dec_dst.projs[l] @ g @ dec_src.incls[k]
            moved = rule(nk, tk, tl, block)
            out = out + (d_incl[l] @ moved @ s_proj[k])
    return out


def tau_inverse_dup(m: TripleModule) -> TripleModule:
    """Inverse translate: cokernel of the moved injective copresentation."""
    nk = _nakayama(m.quiver)
    dec0, emb = homsolve.injective_envelope_parts(m)
    C, _proj = homsolve.cokernel(emb)
    dec1, emb1 = homsolve.injective_envelope_parts(C)
    g = emb1 @ _proj                      # E0 -> E1
    moved = _transport(nk, g, dec0, dec1, forward=False)
    out, _ = homsolve.cokernel(moved)
    return out


def tau_dup(m: TripleModule) -> TripleModule:
    """Forward translate: kernel of the moved projective presentation."""
    nk = _nakayama(m.quiver)
    dec0, cover = homsolve.projective_cover_parts(m)
    K, incl = homsolve.kernel(cover)
    dec1, cover1 = homsolve.projective_cover_parts(K)
    g1 = incl @ cover1                    # P1 -> P0
    moved = _transport(nk, g1, dec1, dec0, forward=True)
    out, _ = homsolve.kernel(moved)
    return out


def shifted_module(q: Quiver, i: int) -> TripleModule:
    """Inverse translate of the embedded injective at vertex i.

    Certified on construction: nonzero top layer (so never an embedded
    module), one-dimensional endomorphism ring, projective dimension 1.
    """
    w = tau_inverse_dup(embed(q, rep_a.injective(q, i)))
    if w.top_dim() == 0:
        raise RuntimeError("shifted module degenerated into the embedded layer")
    if homsolve.end_dim(w) != 1:
        raise RuntimeError("shifted module failed to be indecomposable")
    if homsolve.projective_dimension(w, cap=2) != 1:
        raise RuntimeError("shifted module has unexpected projective dimension")
    return w


# ---------------------------------------------------------------------------
# the working context


class DupPoolId(NamedTuple):
    """Identifier of a candidate summand: E = embedded, W = shifted."""

    kind: str
    key: object

    def __str__(self) -> str:
        if self.kind == "E":
            return f"E{self.key}"
        return f"{self.kind}{self.key}"


@dataclass
class DupContext:
    """Canonical data of a duplicated path algebra, with hom/ext caches."""

    quiver: Quiver

    def __post_init__(self) -> None:
        q = self.quiver
        self.n = len(q.vertices)
        nk = _nakayama(q)
        self.embedded_projectives = nk.embedded_proj
        self.bar_projectives = nk.bar
        self.top_injectives = nk.top_inj
        self._pool: list[tuple[DupPoolId, TripleModule]] | None = None
        self._a_dims: list[tuple[int, ...]] = []
        self._a_ext: dict[tuple[int, int], int] = {}
        self._objects: list[tuple[DupPoolId, TripleModule]] | None = None
        self._hom: dict[tuple[int, int], list[SlotMap]] = {}
        self._syz: dict[int, tuple[TripleModule, dict[Slot, int]]] = {}
        self._ext: dict[tuple[int, int], int] = {}
        self._radical: dict[tuple[int, int, int], tuple] = {}
        self._composites: dict[tuple[int, int, int], tuple] = {}
        self._shared: dict[tuple, tuple] = {}  # one copy of each coordinate value
        self._rules_checked = False

    # -- canonical families ------------------------------------------------

    def shifted(self, i: int) -> TripleModule:
        pool = self.pool()
        for pid, mod in pool:
            if pid.kind == "W" and pid.key == i:
                return mod
        raise KeyError(i)

    def sigma_levels(self) -> list[list[TripleModule]]:
        """Cosyzygy levels of the embedded projectives (levels 0, 1, 2)."""
        level = [embed(self.quiver, rep_a.projective(self.quiver, a))
                 for a in self.quiver.vertices]
        out = [level]
        for _ in range(2):
            nxt = []
            for m in level:
                c, _, _ = homsolve.cosyzygy(m)
                if not c.is_zero():
                    nxt.append(c)
            out.append(nxt)
            level = nxt
        return out

    # -- pool ---------------------------------------------------------------

    def pool(self) -> list[tuple[DupPoolId, TripleModule]]:
        """Candidate non-bar summands: embedded indecomposables + shifts."""
        if self._pool is None:
            q = self.quiver
            inds = rep_a.indecomposables(q)
            items: list[tuple[DupPoolId, TripleModule]] = []
            for iid, rep in inds:
                items.append((DupPoolId("E", iid), embed(q, rep)))
                self._a_dims.append(rep.dim_vector())
            for i, (_, mi) in enumerate(inds):
                for j, (_, mj) in enumerate(inds):
                    self._a_ext[(i, j)] = rep_a.ext1_dim(mi, mj)
            for v in q.vertices:
                items.append((DupPoolId("W", v), shifted_module(q, v)))
            self._pool = items
            self._ids = [pid for pid, _ in items]
        return self._pool

    def objects(self) -> list[tuple[DupPoolId, TripleModule]]:
        """Pool plus the bar projectives (global hom-cache index space)."""
        if self._objects is None:
            self._objects = self.pool() + [
                (DupPoolId("B", v), self.bar_projectives[v])
                for v in self.quiver.vertices
            ]
        return self._objects

    def pool_size(self) -> int:
        return len(self.pool())

    def pool_ids(self) -> list[DupPoolId]:
        self.pool()
        return self._ids

    def embedded_projective_indices(self) -> list[int]:
        """Pool positions of the embedded A-projectives (one per vertex)."""
        self.pool()
        by_dims = {dv: i for i, dv in enumerate(self._a_dims)}
        return [
            by_dims[rep_a.projective(self.quiver, a).dim_vector()]
            for a in self.quiver.vertices
        ]

    def hom_idx(self, i: int, j: int) -> list[SlotMap]:
        got = self._hom.get((i, j))
        if got is None:
            objs = self.objects()
            got = homsolve.hom_basis(objs[i][1], objs[j][1])
            self._hom[(i, j)] = got
        return got

    def radical_idx(self, x: int, j: int, i: int) -> tuple:
        """``homsolve.radical_coordinates`` of the composites x -> j -> i,
        in the cached basis ``hom_idx(x, i)`` (cached)."""
        key = (x, j, i)
        got = self._radical.get(key)
        if got is None:
            got = homsolve.radical_coordinates(
                self.objects()[x][1], self.hom_idx(x, j), self.hom_idx(j, i),
                self.hom_idx(x, i))
            got = self._radical[key] = self._shared.setdefault(got, got)
        return got

    def composite_idx(self, x: int, i: int, y: int) -> tuple:
        """``homsolve.composite_coordinates`` of the composites
        x -> i -> y over the cached bases, in ``hom_idx(x, y)`` (cached)."""
        key = (x, i, y)
        got = self._composites.get(key)
        if got is None:
            got = homsolve.composite_coordinates(
                self.objects()[x][1], self.hom_idx(x, i), self.hom_idx(i, y),
                self.hom_idx(x, y))
            got = self._composites[key] = self._shared.setdefault(got, got)
        return got

    def _syzygy_data(self, i: int) -> tuple[TripleModule, dict[Slot, int]]:
        got = self._syz.get(i)
        if got is None:
            m = self.objects()[i][1]
            dec, cover = homsolve.projective_cover_parts(m)
            K, _ = homsolve.kernel(cover)
            mults: dict[Slot, int] = {}
            for tag in dec.tags:
                mults[tag] = mults.get(tag, 0) + 1
            got = (K, mults)
            self._syz[i] = got
        return got

    def ext1_idx(self, i: int, j: int) -> int:
        """dim Ext^1 between objects, via one syzygy step (cached)."""
        got = self._ext.get((i, j))
        if got is not None:
            return got
        K, mults = self._syzygy_data(i)
        N = self.objects()[j][1]
        cover_hom = sum(mult * N.dims[s] for s, mult in mults.items())
        val = (homsolve.hom_dim(K, N) - cover_hom
               + len(self.hom_idx(i, j)))
        if val < 0:
            raise RuntimeError(f"negative Ext^1 between objects {i} and {j}")
        self._ext[(i, j)] = val
        return val

    # -- compatibility rules -------------------------------------------------

    def _rule_ext_zero(self, i: int, j: int) -> bool:
        """Predicted vanishing of Ext^1(pool_i, pool_j) without the engine."""
        pid, qid = self.pool_ids()[i], self.pool_ids()[j]
        if pid.kind == "W" and qid.kind == "E":
            return self._a_dims[j][self.quiver.v_pos[pid.key]] == 0
        if pid.kind == "E" and qid.kind == "E":
            return self._a_ext[(i, j)] == 0
        # E -> W and W -> W never extend
        return True

    def compatible(self, i: int, j: int) -> bool:
        return self._rule_ext_zero(i, j) and self._rule_ext_zero(j, i)

    @cached_property
    def table(self) -> list[frozenset[int]]:
        return tilt_a.compatibility_table(self.pool_size(), self.compatible)

    def validate_rules(self) -> None:
        """Cross-check every predicted Ext vanishing against the solver."""
        if self._rules_checked:
            return
        r = len(self.pool())
        for i in range(r):
            for j in range(r):
                rule = self._rule_ext_zero(i, j)
                engine = self.ext1_idx(i, j) == 0
                if rule != engine:
                    raise RuntimeError(
                        f"compatibility rule disagrees with the solver on "
                        f"({self.pool_ids()[i]}, {self.pool_ids()[j]}): "
                        f"rule says {'zero' if rule else 'nonzero'}, solver says "
                        f"{self.ext1_idx(i, j)}"
                    )
        self._rules_checked = True


def build_context(q: Quiver) -> DupContext:
    return DupContext(q)


# ---------------------------------------------------------------------------
# tilting enumeration and the exchange graph


def enumerate_tilting_dup(ctx: DupContext, validate: bool = True) -> list[tilt_a.Tilting]:
    """All basic tilting modules containing every bar projective.

    A set of n pairwise compatible pool members completes, together with
    the n bar projectives, to a tilting module over the duplicated
    algebra; the bar summands are left implicit everywhere.
    """
    if validate:
        ctx.validate_rules()
    ids = ctx.pool_ids()
    mods = [m for _, m in ctx.pool()]
    return [tilt_a.make_tilting(c, ids, mods) for c in tilt_a.cliques(ctx.table, ctx.n)]


def tilting_quiver_dup(ctx: DupContext) -> tilt_a.TiltingGraph:
    """Exchange graph of the tilting modules over the duplicated algebra.

    An arc runs from the set containing x to the set containing y when
    exchanging x for y in their common almost complete part, oriented by
    Ext^1(y, x) != 0 (solver-checked); each arc also carries an
    exchange sequence 0 -> x -> E -> y -> 0 with E in the additive
    closure of the common part plus bar projectives, certified by
    ``homsolve.certify_exchange`` from cached Hom bases: the
    approximation x -> E is injective, dim E = dim x + dim y, and the
    maps E -> y killing x form a line spanned by a surjection.  The
    composites both steps need depend only on object indices and are
    read from ``radical_idx`` and ``composite_idx``.  Parts without
    exactly two completions are listed in ``defects``.
    """
    tilts = enumerate_tilting_dup(ctx)
    ids = ctx.pool_ids()
    objs = ctx.objects()
    bar_indices = list(range(ctx.pool_size(), ctx.pool_size() + ctx.n))

    def certify(x: int, y: int, rest: tuple[int, ...]) -> tuple[int, ...]:
        members = list(rest) + bar_indices
        e_dims = homsolve.certify_exchange(
            objs[x][1], [objs[k][1] for k in members], objs[y][1],
            hom_x=[ctx.hom_idx(x, k) for k in members],
            pool_hom=lambda a, b: ctx.hom_idx(members[a], members[b]),
            hom_y=[ctx.hom_idx(k, y) for k in members],
            radical=lambda a, b: ctx.radical_idx(x, members[a], members[b]),
            composites=lambda a: ctx.composite_idx(x, members[a], y))
        if e_dims is None:
            raise RuntimeError(f"exchange cokernel at {ids[x]} is not the expected "
                               f"complement {ids[y]}")
        return e_dims

    arcs, defects = tilt_a.exchange_arcs(ids, ctx.table, ctx.ext1_idx, certify,
                                         [t.indices for t in tilts],
                                         allowed=frozenset({2}))
    return tilt_a.TiltingGraph(
        ctx.quiver, ctx, tilts, arcs,
        defects=[f"almost complete part {list(rest)} has {count} completions"
                 for rest, count in defects])


# ---------------------------------------------------------------------------
# checkers


def verify_embedding(ctx: DupContext) -> dict:
    """The classical exchange graph sits inside the duplicated one.

    Maps each tilting module over A to its embedded image, checks the
    map is a bijection onto the all-embedded vertices, and that arcs
    between embedded vertices correspond exactly both ways.
    """
    kA = tilt_a.tilting_quiver(ctx.quiver)
    dup = tilting_quiver_dup(ctx)
    id_to_pos = {pid: i for i, pid in enumerate(ctx.pool_ids())}
    violations: list[str] = []

    image: dict[int, int] = {}
    for i, t in enumerate(kA.tiltings):
        want = [id_to_pos[DupPoolId("E", iid)] for iid in t.ids]
        try:
            image[i] = dup.index_of(want)
        except ValueError:
            violations.append(f"embedded image of {t.label()} is not tilting")
    embedded_vertices = {
        i for i, t in enumerate(dup.tiltings)
        if all(pid.kind == "E" for pid in t.ids)
    }
    if set(image.values()) != embedded_vertices:
        violations.append(
            "embedded images do not exhaust the all-embedded tilting sets"
        )
    a_arcs = {(image[a.src], image[a.dst]) for a in kA.arcs
              if a.src in image and a.dst in image}
    dup_arcs_embedded = {
        (a.src, a.dst) for a in dup.arcs
        if a.src in embedded_vertices and a.dst in embedded_vertices
    }
    for missing in sorted(a_arcs - dup_arcs_embedded):
        violations.append(f"arc {missing} lost under embedding")
    for extra in sorted(dup_arcs_embedded - a_arcs):
        violations.append(f"arc {extra} between embedded vertices has no source arc")
    return {
        "status": "pass" if not violations else "violation",
        "stats": {
            "classical_vertices": len(kA.tiltings),
            "classical_arcs": len(kA.arcs),
            "dup_vertices": len(dup.tiltings),
            "dup_arcs": len(dup.arcs),
            "embedded_vertices": len(embedded_vertices),
        },
        "counterexamples": violations,
    }


def verify_regularity(ctx: DupContext) -> dict:
    """Every vertex of the duplicated exchange graph has total degree n,
    and the graph is connected."""
    dup = tilting_quiver_dup(ctx)
    n = ctx.n
    violations = list(dup.defects)
    for i, t in enumerate(dup.tiltings):
        deg = dup.out_degree(i) + dup.in_degree(i)
        if deg != n:
            violations.append(f"{t.label()} has degree {deg}, expected {n}")
    connected = dup.is_connected()
    if not connected:
        violations.append("exchange graph is not connected")
    return {
        "status": "pass" if not violations else "violation",
        "stats": {
            "vertices": len(dup.tiltings),
            "arcs": len(dup.arcs),
            "degree": n,
            "connected": connected,
        },
        "counterexamples": violations,
    }


def verify_shift_completion(ctx: DupContext) -> dict:
    """Shift completion criterion, solver-checked.

    For every almost complete embedded part M (n-1 pairwise compatible
    embedded indecomposables) and every vertex i: M + shift(i) is
    tilting exactly when the total dimension of M at i vanishes.  All
    Ext conditions are evaluated by the solver, not the counting rule.
    Also checks that a non-sincere M misses exactly one vertex.
    """
    ids = ctx.pool_ids()
    shifts = {pid.key: i for i, pid in enumerate(ids) if pid.kind == "W"}
    n = ctx.n
    violations: list[str] = []
    checked = 0
    parts = [c for c in tilt_a.cliques(ctx.table, n - 1)
             if all(ids[i].kind == "E" for i in c)]

    def engine_tilting(indices: tuple[int, ...]) -> bool:
        return all(
            ctx.ext1_idx(a, b) == 0
            for a in indices for b in indices
        )

    for part in parts:
        dimsum = [0] * n
        for c in part:
            dv = ctx._a_dims[c]
            for k in range(n):
                dimsum[k] += dv[k]
        zeros = [v for v, pos in ctx.quiver.v_pos.items() if dimsum[pos] == 0]
        if zeros and len(zeros) != 1:
            violations.append(
                f"{'+'.join(str(ids[c]) for c in part)} misses vertices {zeros}"
            )
        for v in ctx.quiver.vertices:
            predicted = dimsum[ctx.quiver.v_pos[v]] == 0
            actual = engine_tilting(part + (shifts[v],))
            checked += 1
            if predicted != actual:
                violations.append(
                    f"{'+'.join(str(ids[c]) for c in part)} with W{v}: "
                    f"support rule says {predicted}, solver says {actual}"
                )
    return {
        "status": "pass" if not violations else "violation",
        "stats": {
            "almost_complete_parts": len(parts),
            "checked_completions": checked,
        },
        "counterexamples": violations,
    }


def global_dimension_dup(ctx: DupContext, cap: int = 4) -> int:
    """Global dimension via the projective dimensions of the 2n simples."""
    q = ctx.quiver
    best = 0
    for a in q.vertices:
        s_b = embed(q, rep_a.simple(q, a))
        s_t = embed_top(q, rep_a.simple(q, a))
        for s in (s_b, s_t):
            best = max(best, homsolve.projective_dimension(s, cap=cap))
    return best


# ---------------------------------------------------------------------------
# deep check: every projective coresolves in add of each tilting module


def _decompose_in_add(ctx: DupContext, c: TripleModule,
                      member_indices: Sequence[int]) -> list[int] | None:
    """Multiplicities making c isomorphic to a sum of the given objects.

    Solves the hom-count equations (the Gram matrix of a tilting module
    is invertible), then certifies by exhibiting an isomorphism; returns
    None when no certified decomposition exists.
    """
    objs = ctx.objects()
    k = len(member_indices)
    gram = RatMatrix.zeros(k, k)
    for a in range(k):
        for b in range(k):
            gram[a, b] = Fraction(len(ctx.hom_idx(member_indices[a],
                                                  member_indices[b])))
    rhs = [Fraction(len(homsolve.hom_basis(objs[member_indices[a]][1], c)))
           for a in range(k)]
    sol = gram.solve(rhs)
    if sol is None:
        return None
    mults = []
    for x in sol:
        if x.denominator != 1 or x < 0:
            return None
        mults.append(int(x))
    summands: list[TripleModule] = []
    for m, idx in zip(mults, member_indices):
        summands.extend([objs[idx][1]] * m)
    if not summands:
        return mults if c.is_zero() else None
    S, _, _ = homsolve.direct_sum(summands)
    if S.dims_key() != c.dims_key():
        return None
    basis = homsolve.hom_basis(S, c)
    coeff_patterns: list[list[int]] = [
        [1] * len(basis),
        [i + 1 for i in range(len(basis))],
        [(i + 1) ** 2 for i in range(len(basis))],
        [(i + 1) ** 3 for i in range(len(basis))],
    ]
    rng = random.Random(987654321)
    for _ in range(40):
        coeff_patterns.append([rng.randrange(1, 1000) for _ in basis])
    for pattern in coeff_patterns:
        f = SlotMap.zero(S, c)
        for cf, h in zip(pattern, basis):
            f = f + h.scale(Fraction(cf))
        if f.is_injective() and f.is_surjective():
            return mults
    return None


def deep_check_coresolution(ctx: DupContext,
                            tiltings: Sequence[tilt_a.Tilting] | None = None) -> dict:
    """For each tilting set T and each projective P: a short exact
    sequence 0 -> P -> T0 -> T1 -> 0 with both middle terms in add T
    (bar projectives included), built from the minimal left
    approximation of P."""
    if tiltings is None:
        tiltings = enumerate_tilting_dup(ctx)
    objs = ctx.objects()
    bar_indices = list(range(ctx.pool_size(), ctx.pool_size() + ctx.n))
    violations: list[str] = []
    checked = 0
    for t in tiltings:
        members = list(t.indices) + bar_indices
        pool_mods = [objs[k][1] for k in members]
        for p_idx in bar_indices + ctx.embedded_projective_indices():
            checked += 1
            hom_x = [ctx.hom_idx(p_idx, k) for k in members]
            try:
                _, y = homsolve.exchange_sequence(
                    objs[p_idx][1], pool_mods, hom_x=hom_x,
                    pool_hom=lambda a, b: ctx.hom_idx(members[a], members[b]))
            except ValueError as exc:
                violations.append(f"{t.label()} / {objs[p_idx][0]}: {exc}")
                continue
            if _decompose_in_add(ctx, y, members) is None:
                violations.append(
                    f"{t.label()} / {objs[p_idx][0]}: cokernel not in add T"
                )
    return {
        "status": "pass" if not violations else "violation",
        "stats": {"sequences_checked": checked},
        "counterexamples": violations,
    }
