"""Every function the package defines is one the command line runs.

A fixed list of CLI commands runs in process under ``sys.setprofile``:
every subcommand and theorem on A2, A3 and D4, the deep check, window 3,
a ``--json``/``--dot`` run and bad input.  Each ``def`` under
``src/tiltquiver`` must be entered by one of them, apart from the names
in ``ALLOWED``, each kept for the reason given.  Code that only tests
need lives in ``tests/reference.py``.
"""

import ast
import sys
from pathlib import Path

import reference as ref
from tiltquiver import cli

PACKAGE = Path(cli.__file__).resolve().parent

ALLOWED = {
    "exactlin.RatMatrix.rref": "the benchmark's exactlin.rref span patches it",
    "exactlin.dense_row": "rref's dense rows",
    "exactlin.RatMatrix.__eq__": "value equality of the dense matrix, which tests compare by",
    "exactlin.RatMatrix.apply": "the dense matrix-vector product, which tests check against",
    "exactlin.RatMatrix.rank": "the dense rank, which tests check against",
    "dup.validate": "the relation check, which reads the private quiver layout",
    "tilt_a.AlmostComplete.label": "the text of a complement-count violation",
    "quiver_core.Quiver.tits_form": "the Tits form of the public Quiver",
    "exactlin.RatMatrix.__repr__": "debugging output",
    "quiver_core.Quiver.__repr__": "debugging output",
    "homsolve.Rep.__repr__": "debugging output",
    "cli.entry": "process entry, covered by a subprocess test",
}

DISCONNECTED = "vertices 1 2 3\narrow a 1 2\n"


def commands(tmp):
    quiver = tmp / "two.quiver"
    quiver.write_text(DISCONNECTED)
    out = []
    for d in ("A2", "A3", "D4"):
        for sub in ("classify", "indec", "tilting", "kquiver", "dup-kquiver", "orientations"):
            out.append([sub, "--diagram", d])
        for thm in ("3.1", "4.1", "4.2", "4.3", "5.1", "5.2", "5.4", "5.6"):
            out.append(["verify", "--theorem", thm, "--diagram", d])
    out += [
        ["dup-kquiver", "--diagram", "A3", "--deep-check"],
        ["verify", "--theorem", "3.1", "--diagram", "A2", "--deep-check"],
        ["indec", "--window", "3"],
        ["kquiver", "--window", "3"],
        ["verify", "--theorem", "5.4", "--window", "3"],
        ["verify", "--theorem", "5.5", "--window", "3"],
        ["kquiver", "--diagram", "A2", "--json", str(tmp / "r.json"), "--dot", str(tmp / "g.dot")],
        ["classify", "-q", str(quiver)],
        ["tilting", "-q", str(tmp / "missing.quiver")],
        ["tilting", "--diagram", "A2", "-q", str(quiver)],
        ["kquiver", "--window", "3", "--diagram", "A2"],
        ["verify", "--theorem", "5.1", "--diagram", "A2", "--deep-check"],
        ["kquiver", "--diagram", "A2", "--json", str(tmp / "missing" / "r.json")],
        ["classify", "--diagram", "X9"],
    ]
    return out


def definitions():
    """(module, qualified name) -> (file, first line) of every def in the
    package; the first line is the first decorator's, as in the code object."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{prefix}{child.name}"
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[f"{module}.{name}"] = (str(path), first)
                    visit(child, f"{name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")

        visit(ast.parse(path.read_text()), "")
    return out


def test_every_definition_is_reached(tmp_path, capsys):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    ref.clear_caches()
    sys.setprofile(profile)
    try:
        for argv in commands(tmp_path):
            cli.main(argv)
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    resolved = {f: str(Path(f).resolve()) for f, _ in entered}
    entered = {(resolved[f], line) for f, line in entered}
    unreached = {name for name, where in definitions().items() if where not in entered}
    # a new dead def: delete it, or move it to tests/reference.py
    assert sorted(unreached - set(ALLOWED)) == []
    # an allow-list entry that is gone or now reached: drop it
    assert sorted(set(ALLOWED) - unreached) == []
