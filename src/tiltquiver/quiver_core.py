"""Quivers: the combinatorial data everything else is built on.

A quiver here is a finite set of integer-labeled vertices plus a list
of identified arrows, with oriented cycles forbidden so the path
algebra is finite dimensional.  The module owns parsing, the Dynkin /
Euclidean / wild trichotomy of the underlying graph, the Euler form,
vertex deletion, arrow reversal (for reflection functors) and
enumeration of all orientations of a Dynkin tree.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Mapping, NamedTuple, Sequence

__all__ = [
    "Arrow",
    "Quiver",
    "DiagramClass",
    "QuiverSyntaxError",
    "parse_quiver",
    "classify",
    "named_diagram",
    "orientations",
]


class QuiverSyntaxError(ValueError):
    """Malformed quiver description (bad syntax, duplicate ids, cycles)."""


class Arrow(NamedTuple):
    aid: str
    source: int
    target: int


class Quiver:
    """Acyclic quiver with ordered integer vertices and identified arrows.

    Immutable in practice: all mutating-looking operations return new
    quivers.  Vertex order is the declared order and is the canonical
    order used for dimension vectors throughout the package.
    """

    def __init__(self, vertices: Sequence[int], arrows: Iterable[tuple[str, int, int]]):
        self.vertices: tuple[int, ...] = tuple(int(v) for v in vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverSyntaxError(f"duplicate vertex labels in {self.vertices}")
        self.arrows: tuple[Arrow, ...] = tuple(Arrow(str(a), int(s), int(t)) for a, s, t in arrows)
        vset = set(self.vertices)
        seen_ids = set()
        for a in self.arrows:
            if a.aid in seen_ids:
                raise QuiverSyntaxError(f"duplicate arrow id {a.aid!r}")
            seen_ids.add(a.aid)
            if a.source not in vset or a.target not in vset:
                raise QuiverSyntaxError(f"arrow {a.aid!r} touches unknown vertex")
        self.v_pos: dict[int, int] = {v: i for i, v in enumerate(self.vertices)}
        self.arrow_pos: dict[str, int] = {a.aid: i for i, a in enumerate(self.arrows)}
        self._topo = self._toposort()  # also proves acyclicity
        self._paths: dict[tuple[int, int], list[tuple[str, ...]]] | None = None

    # -- construction-time checks ---------------------------------------

    def _toposort(self) -> tuple[int, ...]:
        indeg = {v: 0 for v in self.vertices}
        for a in self.arrows:
            indeg[a.target] += 1
        queue = [v for v in self.vertices if indeg[v] == 0]
        order: list[int] = []
        while queue:
            # smallest declared position first => deterministic order
            queue.sort(key=self.v_pos.get)
            v = queue.pop(0)
            order.append(v)
            for a in self.arrows:
                if a.source == v:
                    indeg[a.target] -= 1
                    if indeg[a.target] == 0:
                        queue.append(a.target)
        if len(order) != len(self.vertices):
            raise QuiverSyntaxError("oriented cycle detected")
        return tuple(order)

    # -- plain accessors -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    def out_arrows(self, v: int) -> list[Arrow]:
        return [a for a in self.arrows if a.source == v]

    def in_arrows(self, v: int) -> list[Arrow]:
        return [a for a in self.arrows if a.target == v]

    def is_sink(self, v: int) -> bool:
        return not self.out_arrows(v)

    def is_source(self, v: int) -> bool:
        return not self.in_arrows(v)

    def topological_order(self) -> tuple[int, ...]:
        return self._topo

    def __repr__(self) -> str:
        arrows = ", ".join(f"{a.aid}:{a.source}->{a.target}" for a in self.arrows)
        return f"Quiver({list(self.vertices)}; {arrows})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Quiver):
            return NotImplemented
        return self.vertices == other.vertices and self.arrows == other.arrows

    def __hash__(self) -> int:
        return hash((self.vertices, self.arrows))

    # -- undirected structure ---------------------------------------------

    def edge_multiset(self) -> dict[tuple[int, int], int]:
        """Underlying undirected edges with multiplicities (u<v keyed)."""
        edges: dict[tuple[int, int], int] = {}
        for a in self.arrows:
            key = (min(a.source, a.target), max(a.source, a.target))
            edges[key] = edges.get(key, 0) + 1
        return edges

    def neighbors(self, v: int) -> list[int]:
        out = set()
        for a in self.arrows:
            if a.source == v:
                out.add(a.target)
            elif a.target == v:
                out.add(a.source)
        return sorted(out, key=self.v_pos.get)

    def is_connected(self) -> bool:
        return len(self.component_vertex_sets()) <= 1

    def component_vertex_sets(self) -> list[list[int]]:
        """Weakly connected components, each as a vertex list in declared order."""
        unseen = set(self.vertices)
        comps: list[list[int]] = []
        for start in self.vertices:
            if start not in unseen:
                continue
            stack, comp = [start], set()
            unseen.discard(start)
            while stack:
                v = stack.pop()
                comp.add(v)
                for w in self.neighbors(v):
                    if w in unseen:
                        unseen.discard(w)
                        stack.append(w)
            comps.append([v for v in self.vertices if v in comp])
        return comps

    def components(self) -> list["Quiver"]:
        return [self.induced(vs) for vs in self.component_vertex_sets()]

    def induced(self, vs: Sequence[int]) -> "Quiver":
        keep = set(vs)
        return Quiver(
            [v for v in self.vertices if v in keep],
            [a for a in self.arrows if a.source in keep and a.target in keep],
        )

    # -- surgery ------------------------------------------------------------

    def delete_vertex(self, x: int) -> "Quiver":
        if x not in self.v_pos:
            raise ValueError(f"unknown vertex {x}")
        return self.induced([v for v in self.vertices if v != x])

    @cache
    def reverse_at(self, v: int) -> "Quiver":
        """Reverse every arrow incident to v (the quiver-level reflection),
        shared per (quiver, v): quivers are immutable and hash by value."""
        if v not in self.v_pos:
            raise ValueError(f"unknown vertex {v}")
        flipped = [
            Arrow(a.aid, a.target, a.source) if v in (a.source, a.target) else a
            for a in self.arrows
        ]
        return Quiver(self.vertices, flipped)

    # -- path algebra combinatorics -----------------------------------------

    def all_paths(self) -> dict[tuple[int, int], list[tuple[str, ...]]]:
        """Every oriented path as a tuple of arrow ids, keyed by (start, end).

        The trivial path at v appears as key (v, v) containing ().  Lists
        are ordered by length, then lexicographically by arrow declaration
        index, so the path basis of the algebra is canonical.
        """
        if self._paths is not None:
            return self._paths
        paths: dict[tuple[int, int], list[tuple[str, ...]]] = {
            (v, v): [()] for v in self.vertices
        }
        # walk vertices in reverse topological order: all paths out of v are
        # an arrow from v followed by a path out of its head
        for v in reversed(self._topo):
            for a in self.out_arrows(v):
                for (s, e), plist in list(paths.items()):
                    if s != a.target:
                        continue
                    bucket = paths.setdefault((v, e), [])
                    bucket.extend((a.aid,) + p for p in plist)
        key = lambda p: (len(p), tuple(self.arrow_pos[x] for x in p))
        for plist in paths.values():
            plist.sort(key=key)
        self._paths = paths
        return paths

    def paths_between(self, u: int, v: int) -> list[tuple[str, ...]]:
        return self.all_paths().get((u, v), [])

    # -- bilinear form --------------------------------------------------------

    def dimvec(self, d: Mapping[int, int] | Sequence[int]) -> tuple[int, ...]:
        """Normalize a dimension vector to a tuple in declared vertex order."""
        if isinstance(d, Mapping):
            extra = set(d) - set(self.vertices)
            if extra:
                raise ValueError(f"dimension vector mentions unknown vertices {sorted(extra)}")
            return tuple(int(d.get(v, 0)) for v in self.vertices)
        if len(d) != self.n:
            raise ValueError(f"dimension vector length {len(d)} != {self.n}")
        return tuple(int(x) for x in d)

    def euler_form(self, d: Mapping[int, int] | Sequence[int], e: Mapping[int, int] | Sequence[int]) -> int:
        """Homological bilinear form: sum d_v e_v minus sum over arrows d_src e_tgt.

        For modules over the path algebra this computes
        dim Hom(M, N) - dim Ext^1(M, N) with d, e the dimension vectors.
        """
        dv, ev = self.dimvec(d), self.dimvec(e)
        total = sum(a * b for a, b in zip(dv, ev))
        for arr in self.arrows:
            total -= dv[self.v_pos[arr.source]] * ev[self.v_pos[arr.target]]
        return total

    def euler_row(self, d: Mapping[int, int] | Sequence[int]) -> tuple[int, ...]:
        """The row r with euler_form(d, e) = sum r_v e_v for every e: d_v
        minus d at the source of each arrow into v."""
        dv = self.dimvec(d)
        row = list(dv)
        for arr in self.arrows:
            row[self.v_pos[arr.target]] -= dv[self.v_pos[arr.source]]
        return tuple(row)

    def tits_form(self, d: Mapping[int, int] | Sequence[int]) -> int:
        return self.euler_form(d, d)


# ----------------------------------------------------------------------------
# parsing


def parse_quiver(text: str) -> Quiver:
    """Parse the line-based quiver format, or a JSON equivalent.

    Line format::

        # comment
        vertices 1 2 3
        arrow a 1 2
        arrow b 2 3

    JSON format, as strict as the line format: an object with keys
    "vertices" (a non-empty list of integers) and "arrows" (a list of
    [id, source, target], a string and two integers; no value is
    converted, so a float or a bool is rejected).
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        import json

        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise QuiverSyntaxError(f"bad JSON quiver: {exc}") from None
        if not isinstance(obj, dict) or "vertices" not in obj or "arrows" not in obj:
            raise QuiverSyntaxError('bad JSON quiver: needs keys "vertices" and "arrows"')
        vertices, arrows = obj["vertices"], obj["arrows"]
        if not (isinstance(vertices, list) and vertices and all(type(v) is int for v in vertices)):
            raise QuiverSyntaxError(f"bad JSON quiver: vertices {json.dumps(vertices)} "
                                    "are not a non-empty list of integers")
        if not isinstance(arrows, list):
            raise QuiverSyntaxError(f"bad JSON quiver: arrows {json.dumps(arrows)} are not a list")
        for a in arrows:
            if not (isinstance(a, list) and len(a) == 3 and isinstance(a[0], str)
                    and type(a[1]) is int and type(a[2]) is int):
                raise QuiverSyntaxError(f"bad JSON quiver: arrow {json.dumps(a)} is not "
                                        "[id, source, target] with integer ends")
        return Quiver(vertices, arrows)

    vertices: list[int] | None = None
    arrows: list[tuple[str, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind, rest = tokens[0], tokens[1:]
        if kind == "vertices":
            if vertices is not None:
                raise QuiverSyntaxError(f"line {lineno}: repeated vertices line")
            try:
                vertices = [int(t) for t in rest]
            except ValueError:
                raise QuiverSyntaxError(f"line {lineno}: vertex labels must be integers") from None
            if not vertices:
                raise QuiverSyntaxError(f"line {lineno}: empty vertex list")
        elif kind == "arrow":
            if len(rest) != 3:
                raise QuiverSyntaxError(f"line {lineno}: arrow needs <id> <src> <dst>")
            try:
                arrows.append((rest[0], int(rest[1]), int(rest[2])))
            except ValueError:
                raise QuiverSyntaxError(f"line {lineno}: arrow endpoints must be integers") from None
        else:
            raise QuiverSyntaxError(f"line {lineno}: unknown directive {kind!r}")
    if vertices is None:
        raise QuiverSyntaxError("missing vertices line")
    return Quiver(vertices, arrows)


# ----------------------------------------------------------------------------
# classification


class DiagramClass(NamedTuple):
    """Trichotomy of a connected underlying graph.

    kind is "dynkin", "euclidean" or "wild"; name is e.g. "A3", "D4",
    "E6", "~A1", "~D4" (None when wild).  edges carries the underlying
    undirected multigraph for downstream use.
    """

    kind: str
    name: str | None
    edges: tuple[tuple[int, int, int], ...]  # (u, v, multiplicity), u < v

    def is_dynkin(self) -> bool:
        return self.kind == "dynkin"


def _arm_lengths(adj: dict[int, list[int]], branch: int) -> list[int] | None:
    """Arm lengths of a tree from its unique branch vertex.

    Returns None if some arm hits another branch vertex (degree > 2),
    which disqualifies the single-branch shapes.
    """
    arms = []
    for first in adj[branch]:
        length, prev, cur = 1, branch, first
        while True:
            nxt = [w for w in adj[cur] if w != prev]
            if len(nxt) == 0:
                break
            if len(nxt) > 1:
                return None
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    return sorted(arms)


def classify(q: Quiver) -> DiagramClass:
    """Dynkin / Euclidean / wild classification of the underlying graph."""
    if not q.is_connected():
        raise ValueError("classification needs a connected quiver")
    em = q.edge_multiset()
    edges = tuple(sorted((u, v, m) for (u, v), m in em.items()))
    wild = DiagramClass("wild", None, edges)

    V = q.n
    if any(m >= 3 for _, _, m in edges):
        return wild
    if any(m == 2 for _, _, m in edges):
        if V == 2 and len(edges) == 1:
            return DiagramClass("euclidean", "~A1", edges)
        return wild

    # simple connected graph from here on
    E = len(edges)
    adj: dict[int, list[int]] = {v: [] for v in q.vertices}
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    degs = {v: len(adj[v]) for v in q.vertices}
    maxdeg = max(degs.values()) if V > 1 else 0

    if E == V:  # exactly one cycle
        if all(d == 2 for d in degs.values()):
            return DiagramClass("euclidean", f"~A{V - 1}", edges)
        return wild
    if E != V - 1:
        return wild

    # tree shapes
    if maxdeg <= 2:
        return DiagramClass("dynkin", f"A{V}", edges)
    branch = [v for v in q.vertices if degs[v] >= 3]
    if maxdeg == 4:
        if len(branch) == 1 and V == 5:
            return DiagramClass("euclidean", "~D4", edges)
        return wild
    if maxdeg >= 5:
        return wild
    if len(branch) == 1:
        arms = _arm_lengths(adj, branch[0])
        if arms is None or len(arms) != 3:
            raise RuntimeError("branch vertex of degree 3 without three arms")
        if arms[0] == 1 and arms[1] == 1:
            return DiagramClass("dynkin", f"D{V}", edges)
        table = {
            (1, 2, 2): ("dynkin", "E6"),
            (1, 2, 3): ("dynkin", "E7"),
            (1, 2, 4): ("dynkin", "E8"),
            (2, 2, 2): ("euclidean", "~E6"),
            (1, 3, 3): ("euclidean", "~E7"),
            (1, 2, 5): ("euclidean", "~E8"),
        }
        hit = table.get(tuple(arms))
        return DiagramClass(*hit, edges) if hit else wild
    if len(branch) == 2:
        # extended D shape: both branch vertices carry two pendant leaves
        for b in branch:
            leaves = [w for w in adj[b] if degs[w] == 1]
            if len(leaves) < 2:
                return wild
        return DiagramClass("euclidean", f"~D{V - 1}", edges)
    return wild


# ----------------------------------------------------------------------------
# catalogue


def _catalogue_edges(name: str) -> list[tuple[int, int]]:
    kind, rank = name[0], name[1:]
    r = int(rank)
    if kind == "A" and 1 <= r <= 8:
        return [(i, i + 1) for i in range(r - 1)]
    if kind == "D" and 4 <= r <= 8:
        return [(0, 2), (1, 2)] + [(i, i + 1) for i in range(2, r - 1)]
    if kind == "E" and 6 <= r <= 8:
        return [(i, i + 1) for i in range(r - 2)] + [(2, r - 1)]
    raise ValueError(f"unknown diagram {name!r}")


def named_diagram(name: str) -> Quiver:
    """Catalogue quiver in its default orientation.

    A1..A8, D4..D8, E6..E8 (trees, every edge oriented low->high) and
    "K"/"KRONECKER" (two parallel arrows 0->1).
    """
    key = name.strip().upper()
    if key in ("K", "KRONECKER"):
        return Quiver([0, 1], [("a", 0, 1), ("b", 0, 1)])
    edges = _catalogue_edges(key)
    n = max((v for e in edges for v in e), default=0) + 1
    return Quiver(range(n), [(f"e{i}", u, v) for i, (u, v) in enumerate(edges)])


def orientations(diagram: str | Quiver | DiagramClass) -> list[Quiver]:
    """All orientations of a Dynkin tree, in a fixed deterministic order.

    Accepts a catalogue name ("A3", "D4", ...), a quiver whose underlying
    graph is Dynkin, or a DiagramClass.  Trees have no oriented cycles,
    so all 2^edges assignments are returned.
    """
    if isinstance(diagram, str):
        edges = _catalogue_edges(diagram.strip().upper())
        verts: Sequence[int] = range(max((v for e in edges for v in e), default=0) + 1)
    else:
        if isinstance(diagram, Quiver):
            dc = classify(diagram)
            verts = diagram.vertices
        else:
            dc = diagram
            verts = sorted({v for u, w, _ in dc.edges for v in (u, w)})
        if not dc.is_dynkin():
            raise ValueError(f"orientations need a Dynkin diagram, got {dc.kind}")
        edges = [(u, v) for u, v, m in dc.edges for _ in range(m)]
    out: list[Quiver] = []
    for mask in range(1 << len(edges)):
        arrows = []
        for i, (u, v) in enumerate(edges):
            s, t = ((u, v) if not (mask >> i) & 1 else (v, u))
            arrows.append((f"e{i}", s, t))
        out.append(Quiver(verts, arrows))
    return out
