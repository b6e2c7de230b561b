"""Tests of the benchmark's own checkers: each accepts the program's output on
a small input and rejects a corrupted copy.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import czswap  # noqa: E402
import pytest  # noqa: E402

import checks as ck  # noqa: E402
import workloads as wls  # noqa: E402

PARAMS5 = [(Fraction(3, 7), Fraction(5, 2)), (Fraction(1, 4), Fraction(9, 5)),
           (Fraction(6, 1), Fraction(2, 3)), (Fraction(7, 8), Fraction(1, 9)),
           (Fraction(4, 5), Fraction(11, 3))]
PATH5 = ck.mask_of([(0, 1), (1, 2), (2, 3), (3, 4)], 5)
CYCLE5 = ck.mask_of([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], 5)


@pytest.fixture(scope="module")
def nonsingular():
    return set().union(*ck.nonsingular_masks(ck.Relabeler(5)).values())


def lookup(mask, params):
    e = czswap.PairSet.of(5, ck.edges_of(mask, 5))
    try:
        return czswap.tabulated_solution_5q(e, czswap.ParamSpec(tuple(params)))
    except czswap.WitnessNotFound as exc:
        return exc


@pytest.mark.parametrize("text", [
    "0", "-3/7", "sqrt2", "1/2 + -3*sqrt2", "i*(2)", "1 + i*(-1/3 + sqrt2)", "i*(5*sqrt2)",
])
def test_parse_qs_reads_the_printed_scalar(text):
    value = ck.parse_qs(text)
    assert str(czswap.RingScalar(*value)) == text


def test_nonsingular_classes_have_their_labelled_counts():
    found = ck.nonsingular_masks(ck.Relabeler(5))
    assert {name: len(masks) for name, masks in found.items()} == {
        "5-cycle": 12, "complement of the 5-path": 60, "complement of {{0,1},{0,2},{1,3}}": 60}


def test_witness_check_accepts_the_program_and_rejects_a_perturbed_component(nonsingular):
    witness = lookup(PATH5, PARAMS5)
    assert wls.witness5_problem(PATH5, PARAMS5, witness, nonsingular,
                                czswap.WitnessNotFound) is None
    solution = [(wls._to_qs(a), wls._to_qs(b)) for a, b in witness.solution.pairs]
    amps = ck.amplitudes(PATH5, wls._qs_params(PARAMS5))
    assert ck.witness_problem(amps, solution) is None
    # this witness zeroes two tensor factors, so some of its coordinates are
    # free; those of qubits 0 and 4 are pinned by the equations
    for q, c in ((0, 0), (0, 1), (4, 0), (4, 1)):
        bad = [list(pair) for pair in solution]
        bad[q][c] = ck.qs_add(bad[q][c], ck.qs(Fraction(1, 1000)))
        assert ck.witness_problem(amps, [tuple(p) for p in bad]) is not None


def test_witness_check_rejects_a_trivial_pair():
    amps = ck.amplitudes(PATH5, wls._qs_params(PARAMS5))
    solution = [(ck.QZERO, ck.QZERO)] + [(ck.QONE, ck.QONE)] * 4
    assert "(0, 0)" in ck.witness_problem(amps, solution)


def test_not_found_is_accepted_only_on_nonsingular_classes(nonsingular):
    missing = lookup(CYCLE5, PARAMS5)
    assert isinstance(missing, czswap.WitnessNotFound)
    assert wls.witness5_problem(CYCLE5, PARAMS5, missing, nonsingular,
                                czswap.WitnessNotFound) is None
    assert wls.witness5_problem(PATH5, PARAMS5, missing, nonsingular,
                                czswap.WitnessNotFound) is not None


PARAMS4 = [(Fraction(2, 3), Fraction(5, 7)), (Fraction(1, 2), Fraction(4, 9)),
           (Fraction(8, 5), Fraction(3, 1)), (Fraction(7, 4), Fraction(6, 11))]


@pytest.mark.parametrize("edges", [[(0, 1), (0, 2), (0, 3)], [(0, 1), (1, 2), (2, 3), (0, 3)],
                                   ck.pairs(4), [(0, 1), (2, 3)]])
def test_phi4_check_accepts_the_program_and_rejects_b_or_l_off_by_one(edges):
    mask = ck.mask_of(edges, 4)
    cases = ck.CaseTable()
    out = czswap.classify_phi4(czswap.PairSet.of(4, edges), czswap.ParamSpec(tuple(PARAMS4)))
    assert wls.phi4_result_problem(mask, PARAMS4, out, cases) is None
    for name in ("B", "L"):
        inv = out.invariants
        shifted = inv.__class__(**{**inv.__dict__, name: getattr(inv, name) + 1})
        bad = out.__class__(**{**out.__dict__, "invariants": shifted})
        assert name in wls.phi4_result_problem(mask, PARAMS4, bad, cases)


def test_case_table_matches_the_graph_counts():
    cases = ck.CaseTable()
    counts = {}
    for mask in range(64):
        counts[cases.case(mask)] = counts.get(cases.case(mask), 0) + 1
    assert counts == {1: 1, 2: 6, 3: 12, 4: 3, 5: 4, 6: 12, 7: 4, 8: 12, 9: 3, 10: 6, 11: 1}


def test_quartic_discriminant_vanishes_exactly_on_repeated_roots():
    # (x - y)^2 (x - 2y)(x + 3y) has a double root; (x-y)(x-2y)(x+3y)(x+5y) does not
    assert ck.quartic_discriminant(1, -1, -7, 13, -6) == 0
    assert ck.quartic_discriminant(1, 5, -7, -29, 30) != 0


def test_circuit_check_rejects_one_appended_gate():
    gates = [("cz", (0, 1)), ("swap", (1, 2)), ("cz", (0, 2)), ("swap", (0, 1))]
    circuit = czswap.Circuit(3, tuple(czswap.Gate(n, q) for n, q in gates))
    out = czswap.synthesize_complete(czswap.normalize(circuit))
    got = [(g.name, tuple(g.qubits)) for g in out.gates]
    assert ck.same_action(3, gates, got)
    for extra in (("cz", (0, 1)), ("swap", (1, 2)), ("cz", (1, 2))):
        assert not ck.same_action(3, gates, got + [extra])


def test_line_op_check_rejects_an_appended_gate():
    wl = wls.Circuits.__new__(wls.Circuits)
    wl.cz = czswap
    gates = [("swap", (0, 1)), ("cz", (1, 2)), ("swap", (0, 1)), ("swap", (2, 3)), ("cz", (0, 1))]
    op = wl._line_op(4, gates)
    out = op.run()
    assert op.check(out) is None
    longer = czswap.Circuit(4, out[1].gates + (czswap.Gate("cz", (0, 1)),))
    assert op.check([out[0], longer, out[2]]) is not None


def test_enumerate_check_rejects_a_wrong_group_order():
    good = {"code": 0, "stdout": "qubits: 5\ntopology: line\norder: 122880\ndiameter: 20\n"}
    assert wls.Cli._enumerate_check(good) is None
    bad = dict(good, stdout=good["stdout"].replace("122880", "122881"))
    assert wls.Cli._enumerate_check(bad) is not None
    assert wls.Cli._enumerate_check(dict(good, code=1)) is not None


def test_cayley_hyperdeterminant_separates_ghz_from_product():
    ghz = [1, 0, 0, 0, 0, 0, 0, 1]
    product = [1, 1, 1, 1, 1, 1, 1, 1]
    assert ck.cayley_hyperdet(ghz) != 0
    assert ck.cayley_hyperdet(product) == 0


def test_report_parsers_read_a_five_qubit_report():
    text = ("params: (1/2, 3); (1, 1); (2, 5/3); (1, 1); (7, 1)\n"
            "solution: (85/294, 1); (0, 1); (1, i*(sqrt2)); (0, 1); (31/72, 1)\n")
    fields = ck.report_fields(text)
    assert ck.parse_pair_list(fields["params"])[0] == (ck.qs(Fraction(1, 2)), ck.qs(3))
    assert ck.parse_pair_list(fields["solution"])[2][1] == ck.qs(0, 0, 0, 1)


def test_tracer_self_time_subtracts_direct_children():
    from tracing import Tracer

    tracer = Tracer()
    tracer.names = ["outer", "inner"]
    # outer [0, 10] holds inner [1, 4] and inner [5, 6]; inner [2, 3] nests in the first
    for name, parent, start, end in ((0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0), (1, 1, 2.0, 3.0),
                                     (1, 0, 5.0, 6.0)):
        tracer.span_name.append(name)
        tracer.span_parent.append(parent)
        tracer.span_start.append(start)
        tracer.span_end.append(end)
    totals = tracer.aggregate()
    assert totals["outer.calls"] == 1 and totals["inner.calls"] == 3
    assert totals["outer.self_s"] == 6.0
    assert totals["inner.self_s"] == 2.0 + 1.0 + 1.0
