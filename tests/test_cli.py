import io
from contextlib import redirect_stderr, redirect_stdout

from czswap.circuit import Topology, parse_circuit, serialize_circuit
from czswap.cli import main
from czswap.optimize import bfs_minimize, normalize, word_to_circuit
from czswap.simulate import equivalent

WORKED_EXAMPLE = """\
qubits 3
swap 1 2
cz 0 1
cz 0 2
swap 1 2
cz 0 1
cz 1 2
swap 0 1
"""

# a GHZ-producing circuit and an equivalent one whose c-Z/SWAP core wastes
# two extra two-qubit gates
GHZ3_FEWER_GATES = """\
qubits 3
h 0
h 1
h 2
cz 0 2
cz 1 2
swap 1 2
h 1
h 0
"""

GHZ3_MORE_GATES = """\
qubits 3
h 0
h 1
h 2
cz 1 2
cz 0 2
cz 0 1
swap 1 2
cz 0 2
h 1
h 0
"""


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def test_optimize_complete_worked_example(tmp_path):
    path = tmp_path / "c.czs"
    path.write_text(WORKED_EXAMPLE)
    code, out, err = run_cli(["optimize", "--topology", "complete", str(path)])
    assert code == 0
    assert "verified" in err
    result = parse_circuit(out)
    assert len(result.gates) == 3
    assert equivalent(result, parse_circuit(WORKED_EXAMPLE))
    assert out == "qubits 3\ncz 0 2\ncz 1 2\nswap 0 1\n"


def test_optimize_exact_flag(tmp_path):
    path = tmp_path / "c.czs"
    path.write_text(WORKED_EXAMPLE)
    code, out, err = run_cli(["optimize", "--topology", "complete", "--exact", str(path)])
    assert code == 0
    assert "minimal" in err


def test_optimize_line_topology(tmp_path):
    path = tmp_path / "line.czs"
    path.write_text("qubits 5\ncz 0 1\ncz 3 4\nswap 1 2\nswap 0 1\ncz 1 2\ncz 3 4\nswap 0 1\n")
    code, out, err = run_cli(["optimize", "--topology", "line", str(path)])
    assert code == 0
    result = parse_circuit(out)
    assert equivalent(result, parse_circuit(path.read_text()))
    assert len(result.gates) <= 7


def test_optimize_line_exact_skips_the_heuristic(tmp_path, monkeypatch):
    # --exact on the line answers with the Cayley-graph minimum, so the
    # Dehn reduction and the budgeted heuristic must not run at all
    def fail(*args, **kwargs):
        raise AssertionError("--exact must not run the line heuristic")

    monkeypatch.setattr("czswap.cli.heuristic_line_reduce", fail)
    monkeypatch.setattr("czswap.cli.dehn_reduce", fail)
    text = "qubits 4\ncz 0 1\nswap 1 2\ncz 2 3\nswap 1 2\ncz 0 1\nswap 2 3\n"
    path = tmp_path / "line.czs"
    path.write_text(text)
    code, out, err = run_cli(["optimize", "--topology", "line", "--exact", str(path)])
    assert code == 0, err
    nf = normalize(parse_circuit(text))
    assert out == serialize_circuit(word_to_circuit(bfs_minimize(nf, Topology.LINE)))


def test_optimize_line_exact_rejects_six_qubits(tmp_path):
    path = tmp_path / "six.czs"
    path.write_text("qubits 6\ncz 0 1\nswap 4 5\n")
    code, out, err = run_cli(["optimize", "--topology", "line", "--exact", str(path)])
    assert code == 1
    assert out == ""
    assert "--exact needs k <= 5" in err


def test_optimize_rejects_topology_violation(tmp_path):
    path = tmp_path / "bad.czs"
    path.write_text("qubits 3\ncz 0 2\n")
    code, _out, err = run_cli(["optimize", "--topology", "line", str(path)])
    assert code == 1
    assert "topology" in err


def test_optimize_rejects_h(tmp_path):
    path = tmp_path / "h.czs"
    path.write_text("qubits 2\nh 0\n")
    code, _out, err = run_cli(["optimize", str(path)])
    assert code == 1


def test_verify_equivalent_ghz_circuits(tmp_path):
    a = tmp_path / "a.czs"
    b = tmp_path / "b.czs"
    a.write_text(GHZ3_FEWER_GATES)
    b.write_text(GHZ3_MORE_GATES)
    code, out, _ = run_cli(["verify", str(a), str(b)])
    assert code == 0
    assert out.strip() == "equivalent"


def test_verify_inequivalent(tmp_path):
    a = tmp_path / "a.czs"
    b = tmp_path / "b.czs"
    a.write_text("qubits 2\ncz 0 1\n")
    b.write_text("qubits 2\nswap 0 1\n")
    code, out, _ = run_cli(["verify", str(a), str(b)])
    assert code == 2
    assert out.strip() == "inequivalent"


def test_verify_k_mismatch(tmp_path):
    a = tmp_path / "a.czs"
    b = tmp_path / "b.czs"
    a.write_text("qubits 2\ncz 0 1\n")
    b.write_text("qubits 3\ncz 0 1\n")
    code, _out, err = run_cli(["verify", str(a), str(b)])
    assert code == 1


def test_classify_3q_deterministic():
    code1, out1, _ = run_cli(["classify", "--qubits", "3", "--pairs", "01,12",
                              "--params", "random", "--seed", "7"])
    code2, out2, _ = run_cli(["classify", "--qubits", "3", "--pairs", "01,12",
                              "--params", "random", "--seed", "7"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert "class: " in out1 and "w-class" not in out1


def test_classify_4q_case_report():
    code, out, _ = run_cli(["classify", "--qubits", "4", "--pairs", "01,23",
                            "--params", "random", "--seed", "7"])
    assert code == 0
    assert "case: 4" in out
    assert "EPR" in out


def test_classify_4q_symbolic():
    code, out, _ = run_cli(["classify", "--qubits", "4", "--pairs", "01,12,23",
                            "--seed", "3", "--symbolic"])
    assert code == 0
    assert "symbolic-LMN-vanishes: ok" in out


def test_classify_3q_symbolic():
    code, out, _ = run_cli(["classify", "--qubits", "3", "--pairs", "none",
                            "--seed", "3", "--symbolic"])
    assert code == 0
    assert "symbolic-no-w-certificate: ok" in out


def test_classify_bad_pairs():
    code, _out, err = run_cli(["classify", "--qubits", "3", "--pairs", "07"])
    assert code == 1


def test_classify_params_file(tmp_path):
    path = tmp_path / "params.txt"
    path.write_text("1 1\n2 3\n1 2\n")
    code, out, _ = run_cli(["classify", "--qubits", "3", "--pairs", "01",
                            "--params", str(path)])
    assert code == 0
    assert "degenerate" in out or "ghz-class" in out


def test_enumerate():
    code, out, _ = run_cli(["enumerate", "--qubits", "3"])
    assert code == 0
    assert "order: 48" in out
    code, _out, err = run_cli(["enumerate", "--qubits", "7"])
    assert code == 1


def test_ghz_command():
    code, out, _ = run_cli(["ghz", "--qubits", "4"])
    assert code == 0
    c = parse_circuit(out)
    assert c.k == 4 and c.gate_count("cz") == 3


def test_classify_5q_report_and_nonsingular_class():
    code, out, _ = run_cli(["classify", "--qubits", "5", "--pairs", "01",
                            "--seed", "5"])
    assert code == 0
    assert "edge-class: 2" in out
    assert "solution" in out
    # the 5-cycle class has no witness: the vanishing claim fails there
    code, out, _ = run_cli(["classify", "--qubits", "5",
                            "--pairs", "01,12,23,34,04", "--seed", "5"])
    assert code == 2
    assert "no-witness" in out
