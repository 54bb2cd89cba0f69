"""CLI behaviour: golden outputs, exit codes, byte-stable reports."""

import ast
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
from tiltquiver import cli

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


@pytest.mark.parametrize("argv", [
    "kquiver --diagram A4",
    "kquiver --window 6",
    "dup-kquiver --diagram A3",
    "verify --theorem 4.1 --diagram A3",
    "verify --theorem 5.2 --diagram D4",
])
def test_full_stdout_golden(capsys, argv):
    # tests/golden/<argv without dashes, dots and spaces as _>.txt
    name = argv.replace("--", "").replace(".", "_").replace(" ", "_")
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text()


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
    init, cliques = cli.dup.DupContext.__init__, cli.tilt_a.cliques

    def recorded_context(self, quiver):
        init(self, quiver)
        contexts.append(self)

    def recorded_search(table, size):
        searches.append((table, size))
        return cliques(table, size)

    monkeypatch.setattr(cli.dup.DupContext, "__init__", recorded_context)
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
    monkeypatch.setattr(cli.dup, "verify_regularity", fake)
    code, out, _ = run(capsys, "verify", "--theorem", "4.2",
                       "--diagram", "A2")
    assert code == 1
    assert "theorem 4.2 [diagram A2]: violation" in out
    assert "counterexample: made up" in out


# ---------------------------------------------------------------------------
# engine failures: exit 2, never a pass or a violation

WRONG_COKERNEL = (
    "import sys\n"
    "from tiltquiver import cli, tilt_a\n"
    "tilt_a.exchange_sequence = lambda x, pool, **k: (x, x)\n"
    "sys.exit(cli.main(['kquiver', '--diagram', 'A3']))\n"
)


# every duplicated arc is offered its own source x as the complement, with
# Hom bases into x and composite coordinates of its own
WRONG_COMPLEMENT = (
    "import sys\n"
    "from tiltquiver import cli, homsolve\n"
    "certify, hom_basis = homsolve.certify_exchange, homsolve.hom_basis\n"
    "def offered(x, pool, y, hom_x, hom_y, radical, composites):\n"
    "    hom_px, hom_xx = [hom_basis(P, x) for P in pool], hom_basis(x, x)\n"
    "    return certify(x, pool, x, hom_x, hom_px, radical, lambda i: \\\n"
    "        homsolve.composite_coordinates(x, hom_x[i], hom_px[i], hom_xx))\n"
    "homsolve.certify_exchange = offered\n"
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
    hom_basis = cli.dup.homsolve.hom_basis
    monkeypatch.setattr(cli.dup.homsolve, "hom_basis",
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
    # the start of every command
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tiltquiver.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _plain(v) -> bool:
    """v holds only JSON values, tuples and the two id types ``_jsonable``
    writes as their names."""
    if isinstance(v, (cli.IndecId, cli.dup.DupPoolId)):
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
