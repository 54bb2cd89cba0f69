"""CLI behaviour: golden outputs, exit codes, byte-stable reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_failed_arc_certificate_is_an_engine_error(flags):
    # the certificate must hold under -O too, where assert statements vanish
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *flags, "-c", WRONG_COKERNEL],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "engine error:" in proc.stderr


@pytest.mark.parametrize("exc", [AssertionError, ArithmeticError, KeyError])
def test_engine_exceptions_exit_2(capsys, monkeypatch, exc):
    def broken(q):
        raise exc("injected")
    monkeypatch.setattr(cli.tilt_a, "tilting_quiver", broken)
    code, out, err = run(capsys, "kquiver", "--diagram", "A3")
    assert code == 2
    assert out == ""
    assert err.startswith("engine error:")


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


def test_over_cap_rank(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "3.1",
                       "--diagram", "A4")
    assert code == 2
    assert "rank" in err


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
