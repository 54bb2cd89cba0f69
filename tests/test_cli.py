"""CLI behaviour: golden outputs, exit codes, byte-stable reports."""

import ast
import gc
import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference as ref
import tiltquiver
from tiltquiver import cli, dup

A2_FILE = "vertices 1 2\narrow a 1 2\n"
GOLDEN = Path(__file__).parent / "golden"
SRC = Path(cli.__file__).resolve().parents[1]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# golden outputs


def test_tilting_a2_golden(capsys):
    code, out, err = run(capsys, "tilting", "--diagram", "A2")
    assert code == 0
    assert out == (
        "tilting [diagram A2]: pass\n"
        "tilting modules: 2\n"
        "(0,1)+(1,1) dim=(1,2)\n"
        "(1,0)+(1,1) dim=(2,1)\n"
    )
    assert err.startswith("time:")


def test_kquiver_a2_golden(capsys):
    code, out, _ = run(capsys, "kquiver", "--diagram", "A2")
    assert code == 0
    assert out == (
        "kquiver [diagram A2]: pass\n"
        "stats: arcs=1 connected=yes vertices=2\n"
        "(0,1)+(1,1)\n"
        "(1,0)+(1,1)\n"
        "(0,1)+(1,1) -> (1,0)+(1,1)\n"
    )


# every theorem token, and the --json report of each verify run and of
# one orientation sweep, pinned before the checkers shared one report shape
JSON_GOLDENS = {
    "verify --theorem 3.1 --diagram A3 --deep-check",
    "verify --theorem 4.1 --diagram A3",
    "verify --theorem 4.2 --diagram A3",
    "verify --theorem 4.3 --diagram A3",
    "verify --theorem 5.1 --diagram D4",
    "verify --theorem 5.2 --diagram D4",
    "verify --theorem 5.4 --window 4",
    "verify --theorem 5.5 --window 6",
    "verify --theorem 5.6 --diagram A3",
    "orientations --diagram A3",
}


@pytest.mark.parametrize("argv", [
    "kquiver --diagram A4",
    "kquiver --window 6",
    "dup-kquiver --diagram A3",
    "orientations --diagram D4",
    *sorted(JSON_GOLDENS),
])
def test_full_stdout_golden(capsys, tmp_path, argv):
    # tests/golden/<argv without dashes, dots and spaces as _>.txt, and .json
    name = argv.replace("--", "").replace(".", "_").replace(" ", "_")
    report = tmp_path / "r.json"
    extra = ["--json", str(report)] if argv in JSON_GOLDENS else []
    code, out, _ = run(capsys, *argv.split(), *extra)
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text()
    if extra:
        assert report.read_text() == (GOLDEN / f"{name}.json").read_text()


# sha256 of the stdout and of the --dot file of an exchange graph on a
# seed-1 input (read from E6.quiver or D6.quiver in the working directory,
# since stdout names the file), and of the stdout of the D5 orientation
# sweep, which searches cliques on 16 orientations and their deleted-vertex
# quivers
SEEDED_DIGESTS = {
    "dup-kquiver E6_SEED1": (
        "b719f1936fe0c733681f07b4556184b657fb230ab8281d1a5f9d1a705a392591",
        "e3b2f6704a9f3141eb250e56b865ec2b9562dacc13711a6d9ed0cac60b9de342"),
    "kquiver D6_SEED1": (
        "12adbde027631d7a187ba6009117e6f968a53a56129451174240d4bb2168e60d",
        "899d13f11c670324a39bafd5c18750ed7acff22bb175a15cc43841e6509fc84c"),
}
D5_SWEEP_SHA256 = "142751c62953625b85eeb188f3b9905731dccfa14c489e21983364d3162e858f"


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(SEEDED_DIGESTS))
def test_seeded_graph_digests(capsys, tmp_path, monkeypatch, case):
    command, fixture = case.split()
    name = fixture.split("_")[0] + ".quiver"
    monkeypatch.chdir(tmp_path)
    Path(name).write_text(getattr(ref, fixture))
    code, out, _ = run(capsys, command, "-q", name, "--dot", "graph.dot")
    assert code == 0
    assert (_sha256(out), _sha256(Path("graph.dot").read_text())) == SEEDED_DIGESTS[case]


def test_d5_orientation_sweep_digest(capsys):
    code, out, _ = run(capsys, "orientations", "--diagram", "D5")
    assert code == 0
    assert _sha256(out) == D5_SWEEP_SHA256


def test_dup_kquiver_pentagon_dot(capsys, tmp_path):
    dot = tmp_path / "k.dot"
    code, out, _ = run(capsys, "dup-kquiver", "--diagram", "A2",
                       "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    lines = text.splitlines()
    assert lines[0] == "digraph K {"
    assert lines[-1] == "}"
    assert sum(1 for l in lines if "->" in l) == 5
    assert sum(1 for l in lines if l.endswith('";') and "->" not in l) == 5
    assert '  "E(0,1)+E(1,1)" -> "E(0,1)+W0";' in lines
    assert "stats: arcs=5 connected=yes degree=2 vertices=5" in out


def test_classify_disconnected_file(capsys, tmp_path):
    f = tmp_path / "two.quiver"
    f.write_text("vertices 1 2 3 4\narrow a 1 2\narrow b 3 4\n")
    code, out, _ = run(capsys, "classify", "-q", str(f))
    assert code == 0
    assert "component [1, 2]: dynkin A2" in out
    assert "component [3, 4]: dynkin A2" in out


def test_indec_window(capsys):
    code, out, _ = run(capsys, "indec", "--window", "2")
    assert code == 0
    assert "indecomposables: 6" in out
    assert "P0 dim=(0,1)" in out
    assert "I0 dim=(1,0)" in out


def test_kquiver_large_window(capsys):
    # window 12 took minutes with dense elimination; seconds with sparse
    code, out, _ = run(capsys, "kquiver", "--window", "12")
    assert code == 0
    assert "stats: arcs=22 boundary_vertices=2 connected=no vertices=24\n" in out


def test_orientations_a2(capsys):
    code, out, _ = run(capsys, "orientations", "--diagram", "A2")
    assert code == 0
    assert "orientations [diagram A2]: pass" in out
    assert out.count("orientation ") == 2
    assert "identity 4=4" in out


# ---------------------------------------------------------------------------
# verify plumbing


def test_verify_identity_json(capsys, tmp_path):
    f = tmp_path / "r.json"
    code, out, _ = run(capsys, "verify", "--theorem", "5.6",
                       "--diagram", "A2", "--json", str(f))
    assert code == 0
    assert "identity: 2*t + m = 4 = n*s = 4" in out
    report = json.loads(f.read_text())
    assert report["status"] == "pass"
    assert report["identity"] == {"n": 2, "s": 2, "t": 1, "m": 2,
                                  "lhs": 4, "rhs": 4}
    assert report["theorem"] == "5.6"
    assert report["counterexamples"] == []


def test_verify_reports_are_byte_stable(capsys, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    _, out1, _ = run(capsys, "verify", "--theorem", "4.2",
                     "--diagram", "A2", "--json", str(f1))
    _, out2, _ = run(capsys, "verify", "--theorem", "4.2",
                     "--diagram", "A2", "--json", str(f2))
    assert out1 == out2
    assert f1.read_bytes() == f2.read_bytes()


def test_verify_all_theorems_pass_on_a2(capsys):
    for tok in ("3.1", "4.1", "4.2", "4.3", "5.1", "5.2", "5.4", "5.6"):
        code, out, _ = run(capsys, "verify", "--theorem", tok,
                           "--diagram", "A2")
        assert code == 0, (tok, out)
        assert f"theorem {tok} [diagram A2]: pass" in out
        assert "counterexample" not in out


def test_verify_tame_delta(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "5.5")
    assert code == 0
    assert "theorem 5.5 [window 6]: pass" in out
    assert "delta=P0+P1,I0+I1" in out


def test_verify_window_nonsaturated(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "5.4", "--window", "4")
    assert code == 0
    assert "components=2" in out


def test_deep_check_runs(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "4.2",
                       "--diagram", "A2", "--deep-check")
    assert code == 0
    assert "deep_sequences=20" in out


@pytest.mark.parametrize("theorem", ["3.1", "4.1"])
def test_deep_check_enumerates_the_tilting_modules_once(capsys, monkeypatch, theorem):
    # the theorem's checker and the deep check share one clique search of
    # size n on the duplicated compatibility table
    contexts, searches = [], []
    init, cliques = dup.DupContext.__init__, cli.tilt_a.cliques

    def recorded_context(self, quiver):
        init(self, quiver)
        contexts.append(self)

    def recorded_search(table, size):
        searches.append((table, size))
        return cliques(table, size)

    monkeypatch.setattr(dup.DupContext, "__init__", recorded_context)
    monkeypatch.setattr(cli.tilt_a, "cliques", recorded_search)
    code, out, _ = run(capsys, "verify", "--theorem", theorem,
                       "--diagram", "A3", "--deep-check")
    assert code == 0
    assert "deep_sequences=" in out
    (ctx,) = contexts
    assert [size for table, size in searches
            if table is ctx.table and size == ctx.n] == [3]


def test_violation_exit_code(capsys, monkeypatch):
    def fake(ctx):
        return {"status": "violation", "stats": {},
                "counterexamples": ["made up"]}
    monkeypatch.setattr(dup, "verify_regularity", fake)
    code, out, _ = run(capsys, "verify", "--theorem", "4.2",
                       "--diagram", "A2")
    assert code == 1
    assert "theorem 4.2 [diagram A2]: violation" in out
    assert "counterexample: made up" in out


@pytest.mark.parametrize("argv", ["dup-kquiver --diagram A2 --deep-check",
                                  "verify --theorem 4.2 --diagram A2 --deep-check"])
def test_deep_check_violation_exit_code(capsys, monkeypatch, argv):
    # both commands merge the deep check's verdict into their own
    monkeypatch.setattr(dup, "deep_check_coresolution", lambda ctx: cli.tilt_a.verdict(
        ["made up deep"], {"sequences_checked": 20}))
    code, out, _ = run(capsys, *argv.split())
    assert code == 1
    assert out.splitlines()[0].endswith(" [diagram A2]: violation")
    assert "deep_sequences=20" in out
    assert out.endswith("counterexample: made up deep\n")


# faults, each made from the function it replaces
def _one_complement(complement_indices):
    return lambda table, rest: complement_indices(table, rest)[:1]


def _flip_first(saturation):
    def flipped(g, i):
        sat = saturation(g, i)
        return sat._replace(dim_criterion=not sat.dim_criterion) if i == 0 else sat
    return flipped


def _all_saturated(saturation):
    return lambda g, i: saturation(g, i)._replace(saturated=True)


def _one_extra(enumerate_tilting):
    def more(q):
        got = enumerate_tilting(q)
        return got + got[:1]
    return more


# one fault per classical claim, injected through a name its checker calls,
# and the full report it must print
CLAIM_VIOLATIONS = {
    "verify --theorem 5.1 --diagram A3": (
        cli.tilt_a, "complement_indices", _one_complement,
        "theorem 5.1 [diagram A3]: violation\n"
        "stats: almost_complete=10 non_sincere=5 sincere=5\n"
        "counterexample: (0,0,1)+(1,1,1) is sincere with 1 complements\n"
        "counterexample: (0,1,0)+(1,1,1) is sincere with 1 complements\n"
        "counterexample: (1,0,0)+(1,1,1) is sincere with 1 complements\n"
        "counterexample: (0,1,1)+(1,1,1) is sincere with 1 complements\n"
        "counterexample: (1,1,0)+(1,1,1) is sincere with 1 complements\n"),
    "verify --theorem 5.2 --diagram A3": (
        cli.tilt_a.TiltingGraph, "saturation", _flip_first,
        "theorem 5.2 [diagram A3]: violation\n"
        "stats: saturated=0 tilting_modules=5\n"
        "counterexample: (0,0,1)+(1,0,0)+(1,1,1): sigma=2 but dim=(2,1,2)\n"),
    "verify --theorem 5.4 --diagram A3": (
        cli.tilt_a.TiltingGraph, "saturation", _all_saturated,
        "theorem 5.4 [diagram A3]: violation\n"
        "stats: boundary_vertices=0 components=1 unresolved_components=0 vertices=5\n"
        "counterexample: component of (0,0,1)+(1,0,0)+(1,1,1) is fully saturated\n"),
    "verify --theorem 5.5 --window 6": (
        cli.tilt_a.TiltingGraph, "saturation", _all_saturated,
        "theorem 5.5 [window 6]: violation\n"
        "stats: delta=P0+P1,I0+I1 interior_nonsaturated=0 window=6\n"
        "counterexample: deleted-vertex construction disagrees with saturation flags: \n"),
    "verify --theorem 5.6 --diagram A3": (
        cli.tilt_a, "enumerate_tilting", _one_extra,
        "theorem 5.6 [diagram A3]: violation\n"
        "stats: n=3 orientations=4 t_constant=yes\n"
        "identity: 2*t + m = 18 = n*s = 15\n"
        "orientation 0: arrows=(0,1),(1,2) s=5 t=5 m=8 identity 18=15\n"
        "orientation 1: arrows=(1,0),(1,2) s=5 t=5 m=8 identity 18=15\n"
        "orientation 2: arrows=(0,1),(2,1) s=5 t=5 m=8 identity 18=15\n"
        "orientation 3: arrows=(1,0),(2,1) s=5 t=5 m=8 identity 18=15\n"
        'counterexample: {"arrows": [[0, 1], [1, 2]], "lhs": 18, "m": 8, "orientation": 0, '
        '"reason": "identity", "rhs": 15, "s": 5, "t": 5}\n'
        'counterexample: {"arrows": [[1, 0], [1, 2]], "lhs": 18, "m": 8, "orientation": 1, '
        '"reason": "identity", "rhs": 15, "s": 5, "t": 5}\n'
        'counterexample: {"arrows": [[0, 1], [2, 1]], "lhs": 18, "m": 8, "orientation": 2, '
        '"reason": "identity", "rhs": 15, "s": 5, "t": 5}\n'
        'counterexample: {"arrows": [[1, 0], [2, 1]], "lhs": 18, "m": 8, "orientation": 3, '
        '"reason": "identity", "rhs": 15, "s": 5, "t": 5}\n'),
}


@pytest.mark.parametrize("argv", sorted(CLAIM_VIOLATIONS))
def test_classical_claim_violations(capsys, monkeypatch, argv):
    # a counterexample, not only a pass, keeps its text and exit code 1
    owner, name, fault, want = CLAIM_VIOLATIONS[argv]
    monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    code, out, _ = run(capsys, *argv.split())
    assert (code, out) == (1, want)


# ---------------------------------------------------------------------------
# engine failures: exit 2, never a pass or a violation

WRONG_COKERNEL = (
    "import sys\n"
    "from tiltquiver import cli, tilt_a\n"
    "tilt_a.exchange_sequence = lambda x, pool, **k: (x, x)\n"
    "sys.exit(cli.main(['kquiver', '--diagram', 'A3']))\n"
)


# every duplicated arc's certificate tests its own source x as the
# complement, in place of y
WRONG_COMPLEMENT = (
    "import sys\n"
    "from tiltquiver import cli, homsolve\n"
    "in_add = homsolve.cokernel_in_add\n"
    "homsolve.cokernel_in_add = lambda ctx, x, key: lambda members: in_add(ctx, x, key)([x])\n"
    "sys.exit(cli.main(['dup-kquiver', '--diagram', 'A3']))\n"
)


def _run_script(flags, script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *flags, "-c", script],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_failed_arc_certificate_is_an_engine_error(flags):
    # the certificate must hold under -O too, where assert statements vanish
    proc = _run_script(flags, WRONG_COKERNEL)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "engine error:" in proc.stderr


# every pool member's rigidity check reports Ext^1(X, X) = 1
NOT_RIGID = (
    "import sys\n"
    "from tiltquiver import cli, tilt_a\n"
    "tilt_a.ext1_dim = lambda m, n: 1\n"
    "sys.exit(cli.main({argv!r}))\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("argv", [["kquiver", "--diagram", "A3"], ["kquiver", "--window", "3"]],
                         ids=["A3", "window-3"])
def test_non_rigid_pool_member_is_an_engine_error(argv, flags):
    # the Ext^1 table comes from the Euler form, the rigidity check from the solver
    proc = _run_script(flags, NOT_RIGID.format(argv=argv))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "engine error:" in proc.stderr
    assert "is not rigid" in proc.stderr


# the first nonempty Hom basis solved loses its last map, or repeats it
BAD_CLASSICAL_BASIS = (
    "import sys\n"
    "from tiltquiver import cli, homsolve\n"
    "hom_basis, faults = homsolve.hom_basis, [1]\n"
    "def faulty(M, N):\n"
    "    got = hom_basis(M, N)\n"
    "    if got and faults:\n"
    "        faults.pop()\n"
    "        got = {fault}\n"
    "    return got\n"
    "homsolve.hom_basis = faulty\n"
    "sys.exit(cli.main({argv!r}))\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("fault", ["got[:-1]", "got + got[-1:]"], ids=["drop", "duplicate"])
@pytest.mark.parametrize("argv", [["kquiver", "--diagram", "A3"], ["kquiver", "--window", "4"]],
                         ids=["A3", "window-4"])
def test_faulty_classical_hom_basis_is_an_engine_error(argv, fault, flags):
    # Pool.hom_idx knows each dimension from the Euler form before it solves
    proc = _run_script(flags, BAD_CLASSICAL_BASIS.format(fault=fault, argv=argv))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("engine error: the Hom basis of (")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_failed_dup_arc_certificate_is_an_engine_error(flags):
    proc = _run_script(flags, WRONG_COMPLEMENT)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "engine error:" in proc.stderr
    assert "is not the expected complement" in proc.stderr


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so every engine check raises
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "tiltquiver").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


EXPORTING = [module for module in [tiltquiver] + [
    importlib.import_module(f"tiltquiver.{info.name}")
    for info in pkgutil.iter_modules(tiltquiver.__path__)] if hasattr(module, "__all__")]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    # a deleted name must leave no stale export behind
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("exc", [AssertionError, ArithmeticError, KeyError])
def test_engine_exceptions_exit_2(capsys, monkeypatch, exc):
    def broken(q):
        raise exc("injected")
    monkeypatch.setattr(cli.tilt_a, "tilting_quiver", broken)
    code, out, err = run(capsys, "kquiver", "--diagram", "A3")
    assert code == 2
    assert out == ""
    assert err.startswith("engine error:")


def test_homsolve_fault_is_an_engine_error(capsys, monkeypatch):
    # Hom bases whose maps are all doubled: the coordinates of composites
    # read at the free columns no longer rebuild them, RuntimeError, exit 2
    hom_basis = dup.homsolve.hom_basis
    monkeypatch.setattr(dup.homsolve, "hom_basis",
                        lambda M, N: [ref.scale(f, 2) for f in hom_basis(M, N)])
    code, out, err = run(capsys, "dup-kquiver", "--diagram", "A2")
    assert code == 2
    assert out == ""
    assert err.startswith("engine error: a map does not lie in the span of its cached Hom basis")


def test_closed_stdout_keeps_exit_code_and_json(tmp_path):
    # the reader goes away before the first line (as `| head` can): the
    # run still passes, without a traceback, and its JSON report is written
    report = tmp_path / "report.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tiltquiver.cli", "dup-kquiver", "--diagram", "A3",
         "--json", str(report)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 0, err
    assert "Traceback" not in err
    assert json.loads(report.read_text())["status"] == "pass"


def test_the_cli_imports_without_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize, about 15 ms on
    # the start of every command; json and the duplicated-algebra modules
    # load only in the commands that use them, and files are read and
    # written with open, not pathlib (about 2.3 ms).  -S keeps the modules
    # that site-packages hooks import out of the count.
    proc = _run_script(["-S"], "import sys, tiltquiver.cli; print(sorted("
                       "{'dataclasses', 'inspect', 'json', 'pathlib', 'tiltquiver.artable', "
                       "'tiltquiver.dup', 'tiltquiver.endo'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_a_classical_json_report_does_not_load_the_duplicated_algebra(tmp_path):
    # the JSON writer recognises a DupPoolId only when dup is already
    # loaded; a classical report holds none, and verify imports only the
    # module of its theorem's checker
    runs = ["kquiver --diagram A3", *(f"verify --theorem {tok} --diagram D4"
                                      for tok in ("5.1", "5.2", "5.4", "5.6")),
            "verify --theorem 5.5 --window 4"]
    script = "import sys; from tiltquiver import cli\n"
    for k, argv in enumerate(runs):
        script += (f"code = cli.main({argv.split()!r} + ['--json', {str(tmp_path / str(k))!r}])\n"
                   "print(code, 'tiltquiver.dup' in sys.modules, 'tiltquiver.endo' in sys.modules)\n")
    proc = _run_script(["-S"], script)
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stdout.splitlines() if line[0].isdigit()] == ["0 False False"] * 6
    for k in range(len(runs)):
        assert json.loads((tmp_path / str(k)).read_text())["status"] == "pass"


def test_the_process_entry_freezes_before_main():
    # the freeze must come after the imports and before the command runs
    script = ("import gc\n"
              "from tiltquiver import cli\n"
              "print(gc.get_freeze_count())\n"
              "cli.main = lambda: print(gc.get_freeze_count())\n"
              "cli.entry()\n")
    proc = _run_script([], script)
    assert proc.returncode == 0, proc.stderr
    before, during = map(int, proc.stdout.split())
    assert before == 0 < during


def test_main_leaves_the_collector_alone(capsys):
    # tests, the benchmark's tracer and library callers run main in process
    frozen = gc.get_freeze_count()
    code, _, _ = run(capsys, "kquiver", "--diagram", "A2")
    assert code == 0
    assert gc.get_freeze_count() == frozen


def _plain(v) -> bool:
    """v holds only JSON values, tuples and the two id types ``_jsonable``
    writes as their names."""
    if isinstance(v, (cli.IndecId, dup.DupPoolId)):
        return True
    if type(v) is dict:
        return all(type(k) in (str, int) and _plain(x) for k, x in v.items())
    if type(v) in (list, tuple):
        return all(_plain(x) for x in v)
    return v is None or type(v) in (bool, int, str)


@pytest.mark.parametrize("argv", [
    "classify --diagram D4", "indec --window 3", "tilting --diagram A3",
    "kquiver --window 4", "dup-kquiver --diagram A2 --deep-check",
    "orientations --diagram A3", "verify --theorem 5.4 --window 4",
    "verify --theorem 5.5 --window 6", "verify --theorem 3.1 --diagram A2 --deep-check",
    *(f"verify --theorem {tok} --diagram A2"
      for tok in ("4.1", "4.2", "4.3", "5.1", "5.2", "5.6")),
])
def test_reports_hold_no_records(capsys, monkeypatch, argv):
    # _jsonable writes a tuple as a list and any other object as its str,
    # so a record (a named tuple or a class) reaching a report would write
    # JSON that depends on how the record is defined
    reports = []
    report = cli._report
    monkeypatch.setattr(cli, "_report", lambda *a, **k: reports.append(report(*a, **k))
                        or reports[-1])
    code, _, _ = run(capsys, *argv.split())
    assert code == 0
    (got,) = reports
    assert _plain(got)


# ---------------------------------------------------------------------------
# usage and input errors


def test_usage_errors(capsys, tmp_path):
    cases = [
        ("verify", "--theorem", "4.2"),                       # no quiver
        ("verify", "--theorem", "5.1", "--diagram", "A2",
         "--deep-check"),                                     # flag scope
        ("verify", "--theorem", "5.5", "--diagram", "A2"),    # not windowed
        ("verify", "--theorem", "9.9", "--diagram", "A2"),    # unknown token
        ("tilting",),                                         # no quiver
        ("indec", "--window", "2", "--diagram", "A2"),        # both sources
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err


def test_dot_and_json_on_one_file_is_a_usage_error(capsys, tmp_path):
    # the report would overwrite the graph that stdout says was written:
    # rejected before any work, with nothing on stdout and nothing written
    f = tmp_path / "same.out"
    (tmp_path / "link.out").symlink_to(f)
    for other in (f, tmp_path / "." / "same.out", tmp_path / "link.out"):
        code, out, err = run(capsys, "kquiver", "--diagram", "A2",
                             "--dot", str(f), "--json", str(other))
        assert (code, out) == (2, "")
        assert err == "error: --dot and --json name the same file\n"
        assert not f.exists()


def test_mistyped_json_quiver_file(capsys, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text('{"vertices": [1, 2], "arrows": [["a", 1.9, 2]]}')
    code, out, err = run(capsys, "tilting", "-q", str(f))
    assert (code, out) == (2, "")
    assert err.startswith("error: bad JSON quiver: ") and err.count("\n") == 1


def test_both_quiver_sources_rejected(capsys, tmp_path):
    f = tmp_path / "a.quiver"
    f.write_text(A2_FILE)
    code, _, err = run(capsys, "tilting", "-q", str(f), "--diagram", "A2")
    assert code == 2
    assert "choose one" in err


def test_malformed_quiver_file(capsys, tmp_path):
    f = tmp_path / "bad.quiver"
    f.write_text("vertices 1 2\nfrob a 1 2\n")
    code, _, err = run(capsys, "tilting", "-q", str(f))
    assert code == 2
    assert "unknown directive" in err


def test_missing_quiver_file(capsys, tmp_path):
    code, _, err = run(capsys, "tilting", "-q", str(tmp_path / "nope"))
    assert code == 2


# the 4-vertex wild quiver with arrows 1->2, 1->3, 1->4, 4->2 has no name
@pytest.mark.parametrize("text, kind", [
    ("vertices 1 2 3 4\narrow a 1 2\narrow b 1 3\narrow c 1 4\narrow d 4 2\n", "wild;"),
    ("vertices 1 2 3 4 5\narrow a 1 2\narrow b 1 3\narrow c 1 4\narrow d 1 5\n",
     "euclidean/~D4;"),
])
def test_non_dynkin_component_is_named_without_none(capsys, tmp_path, text, kind):
    f = tmp_path / "q.quiver"
    f.write_text(text)
    code, out, err = run(capsys, "kquiver", "-q", str(f))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: component of type {kind} ")
    assert "None" not in err


@pytest.mark.parametrize("flag", ["--json", "--dot"])
def test_unwritable_report_file_is_an_input_error(capsys, tmp_path, flag):
    # a report or graph file that cannot be written: one line on stderr,
    # nothing on stdout, exit 2 (not 1, the code of a violation), and the
    # other of --json and --dot, though writable, is not left behind
    other = tmp_path / "other"
    code, out, err = run(capsys, "kquiver", "--diagram", "A2",
                         flag, str(tmp_path / "missing" / "out"),
                         {"--json": "--dot", "--dot": "--json"}[flag], str(other))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not other.exists()


def test_theorem_3_1_runs_past_rank_three(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "3.1",
                       "--diagram", "A4")
    assert code == 0
    assert "theorem 3.1 [diagram A4]: pass" in out
    assert "max_global_dimension=3 tilting_modules=42" in out


def test_quiver_file_roundtrip(capsys, tmp_path):
    f = tmp_path / "a2.quiver"
    f.write_text(A2_FILE)
    code, out, _ = run(capsys, "tilting", "-q", str(f))
    assert code == 0
    assert "tilting modules: 2" in out


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "usage: tiltquiver" in out
