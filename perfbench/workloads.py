"""Workload table and seeded input generator for the tiltquiver benchmark.

Each workload is one CLI command.  Its input is a quiver file written
from the run's seed: a uniformly random orientation of a fixed Dynkin
tree, with the vertex labels permuted and the arrow ids renamed and
shuffled.  Orienting every edge by a fair coin draws uniformly from the
2^edges orientations that ``tiltquiver.quiver_core.orientations``
enumerates; the generator keeps its own edge lists so that the inputs of
a seed do not depend on the code under test.

Every operation is checked against pinned figures of its report: the
exchange-graph sizes, which do not depend on orientation or labelling
(294 tilting modules for D6; 833 for duplicated E6, the cluster-complex
count of Buan-Marsh-Reineke-Reiten-Todorov 2006), and the endomorphism
sweep summary for A3, whose largest global dimension depends on the
orientation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Underlying trees, as in the package catalogue (quiver_core._catalogue_edges).
TREES = {
    "A3": [(0, 1), (1, 2)],
    "D6": [(0, 2), (1, 2), (2, 3), (3, 4), (4, 5)],
    "E6": [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)],
}


def quiver_text(tree: str, rng: random.Random) -> str:
    """A seeded orientation and relabelling of a Dynkin tree, as a quiver file."""
    edges = TREES[tree]
    verts = sorted({v for e in edges for v in e})
    perm = verts[:]
    rng.shuffle(perm)
    relabel = dict(zip(verts, perm))
    ids = rng.sample(range(100, 1000), len(edges))
    arrows = []
    for aid, (u, v) in zip(ids, edges):
        if rng.random() < 0.5:
            u, v = v, u
        arrows.append(f"arrow a{aid} {relabel[u]} {relabel[v]}")
    rng.shuffle(arrows)
    lines = [f"# {tree}, seeded orientation and relabelling",
             "vertices " + " ".join(map(str, verts))] + arrows
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    tree: str | None          # input quiver family; None = no file input
    argv: Callable[[str], list[str]]   # CLI arguments given the quiver file
    head: str                 # expected first line, '{}' = the input path
    stats: Callable[[str], tuple[str, ...]]   # input text -> 'stats:' tokens
    body_lines: int           # lines after the first two

    def check(self, path: str, stdout: str) -> str | None:
        """Return why the output is wrong, or None when it is right."""
        lines = stdout.splitlines()
        if len(lines) < 2:
            return f"{len(lines)} output lines"
        if lines[0] != self.head.format(path):
            return f"unexpected first line {lines[0]!r}"
        if not lines[1].startswith("stats: "):
            return f"unexpected stats line {lines[1]!r}"
        want = self.stats(Path(path).read_text() if path else "")
        missing = set(want) - set(lines[1].split()[1:])
        if missing:
            return f"stats line {lines[1]!r} lacks {sorted(missing)}"
        if len(lines) - 2 != self.body_lines:
            return f"{len(lines) - 2} body lines, expected {self.body_lines}"
        return None


def _a3_sweep_stats(text: str) -> tuple[str, ...]:
    """Theorem 3.1 on A3: the largest global dimension is 3 when the
    orientation is linear and 2 when the middle vertex is a source or a
    sink (the package's figures on all four orientations)."""
    ends = [line.split()[2:] for line in text.splitlines()
            if line.startswith("arrow")]
    linear = len({s for s, _ in ends}) == len({t for _, t in ends}) == 2
    return ("tilting_modules=14", "deep_sequences=84",
            f"max_global_dimension={3 if linear else 2}")


WORKLOADS = {w.name: w for w in (
    # Elimination-bound: RatMatrix.rref dominates self time on few, wide,
    # sparse systems.  No file input, so the seed does not change the work.
    Workload(
        "kron-w8", None,
        lambda path: ["kquiver", "--window", "8"],
        "kquiver [window 8]: window-limited",
        lambda text: ("arcs=14", "boundary_vertices=2", "connected=no",
                      "vertices=16"),
        16 + 14,
    ),
    # Arc certification without a hom cache: tens of thousands of small
    # hom_basis systems, each a tiny dense rref.
    Workload(
        "classical-d6", "D6",
        lambda path: ["kquiver", "-q", path],
        "kquiver [file {}]: pass",
        lambda text: ("arcs=784", "connected=yes", "vertices=294"),
        294 + 784,
    ),
    # Duplicated-algebra engine bookkeeping: clique search, pool accessors
    # and the hom cache, with rref a minor share.
    Workload(
        "dup-e6", "E6",
        lambda path: ["dup-kquiver", "-q", path],
        "dup-kquiver [file {}]: pass",
        lambda text: ("arcs=2499", "connected=yes", "degree=6", "vertices=833"),
        833 + 2499,
    ),
    # The only command that reaches the endomorphism-algebra layer.
    Workload(
        "endo-a3", "A3",
        lambda path: ["verify", "--theorem", "3.1", "-q", path, "--deep-check"],
        "theorem 3.1 [file {}]: pass",
        _a3_sweep_stats,
        0,
    ),
)}

# The set-up operation: interpreter start, package import, one tiny command.
SETUP_ARGV = ["classify", "--diagram", "A2"]
SETUP_STDOUT = ("classify [diagram A2]: pass\n"
                "quiver: 2 vertices, 1 arrows\n"
                "class: dynkin A2\n")


class Inputs:
    """Quiver files for one run: operation k reads the k-th file of the seed."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.paths: list[str] = []

    def path(self, k: int) -> str:
        while len(self.paths) <= k:
            p = ""
            if self.workload.tree is not None:
                text = quiver_text(self.workload.tree, self.rng)
                p = str(self.workdir / f"input{len(self.paths)}.quiver")
                Path(p).write_text(text)
            self.paths.append(p)
        return self.paths[k]
