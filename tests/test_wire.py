"""The JSON wire decoders and the CSV rows of a gram."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from formcalc import cli
from formcalc.errors import FormcalcError
from formcalc.reporting import (
    MalformedOperand, array_from_json, complex_from_json, decode_arrays,
    gram_csv_rows, matrix_from_json, operator_from_json, rule_from_json,
    vector_from_json, write_csv,
)
from formcalc.scenarios import _space_from_json, _variable


def per_entry(z) -> complex:
    """The per-entry decoder the array decoders replaced: the reference."""
    if isinstance(z, (int, float)):
        return complex(z)
    return complex(z[0], z[1])


def same_bits(got, want) -> bool:
    """Equal as arrays of float64 pairs, signed zeros included."""
    g, w = np.asarray(got).view(float), np.asarray(want).view(float)
    return (got.dtype == complex and got.shape == want.shape
            and np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w)))


numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2 ** 63), 2 ** 63 - 1),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.1e-308, 1e308, -1e308]))


@st.composite
def matrices(draw):
    """1 x 1 up to 4 x 6 nested lists, all numbers or all [re, im] pairs."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    entry = numbers if draw(st.booleans()) else st.lists(numbers, min_size=2, max_size=2)
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


class TestDecoderOracle:
    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_matrix_matches_per_entry(self, rows):
        want = np.array([[per_entry(z) for z in row] for row in rows], dtype=complex)
        assert same_bits(matrix_from_json(rows), want)

    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_array_and_scalar_match_per_entry(self, rows):
        want = np.array([per_entry(z) for z in rows[0]], dtype=complex)
        assert same_bits(array_from_json(rows[0]), want)
        got = complex_from_json(rows[0][0])
        assert same_bits(np.array([got]), np.array([per_entry(rows[0][0])]))

    @pytest.mark.parametrize("v", [
        [["1.5"]], [[None]], [[{"re": 1}]], [[[1]]], [[[1, 2, 3]]],
        [[1, [2, 0]]], [[1, 2], [3]], [1, 2], 3.0, [[10 ** 30]]])
    def test_anything_else_is_malformed(self, v):
        with pytest.raises(MalformedOperand, match="expected a matrix"):
            matrix_from_json(v)

    @pytest.mark.parametrize("v", ["1", None, [1], [1, 2, 3], {"re": 1}])
    def test_malformed_scalar(self, v):
        with pytest.raises(MalformedOperand, match="expected a number or"):
            complex_from_json(v)

    def test_booleans_read_as_one_and_zero_in_every_reader(self):
        for rows in ([[True]], [[2, True], [0, 3]], [[1.5, False]],
                     [[[True, False], [0, 1]]]):
            want = np.array([[per_entry(z) for z in row] for row in rows], dtype=complex)
            assert same_bits(matrix_from_json(rows), want)
            assert same_bits(array_from_json(rows[0]), want[0])
        for v in (True, False, [True, 2], [0.5, False]):
            assert complex_from_json(v) == per_entry(v)


# ---------------------------------------------------------------------------
# arrays decoded while the file is parsed


ODD = st.one_of(
    st.none(), st.booleans(), st.text(max_size=2), st.just([]), st.just([[]]),
    st.integers(2 ** 63, 2 ** 70), st.integers(-(2 ** 70), -(2 ** 63) - 1),
    st.lists(numbers, min_size=1, max_size=3), st.just({"re": 1}))


def positions(v):
    """Every (list, index) inside the nested list ``v``, at any depth."""
    for i, x in enumerate(v):
        yield v, i
        if isinstance(x, list):
            yield from positions(x)


@st.composite
def operand_values(draw):
    """Values shaped like scenario operands: vectors, matrices and 3-level
    lists of numbers or [re, im] pairs, sometimes with one entry (or row)
    replaced by something else: null, a boolean, a string, an int wider
    than 64 bits, an empty list, ``[[]]``, a short list, an object."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    entry = st.lists(numbers, min_size=2, max_size=2) if draw(st.booleans()) else numbers
    entry = st.one_of(entry, st.booleans()) if draw(st.booleans()) else entry
    v = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    v = draw(st.sampled_from([v[0], v, [v, v]]))
    spots = list(positions(v))
    if spots and draw(st.booleans()):
        where, i = draw(st.sampled_from(spots))
        where[i] = draw(ODD)
    return v


def rv_bits(x):
    """What a reader returned, as exact bits, entry by entry."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (list, tuple)):
        return [rv_bits(y) for y in x]
    if isinstance(x, complex):
        return x.real.hex(), x.imag.hex()
    return repr(x)


def outcome(reader, text, **hook):
    try:
        return rv_bits(reader(json.loads(text, **hook)))
    except (MalformedOperand, FormcalcError, ValueError, KeyError) as exc:
        return type(exc).__name__, str(exc)


def operator_matrices(obj):
    A = operator_from_json(obj)
    return [A.basis_mat, A.action_mat]


# (payload around an operand value v, reader of the parsed payload)
READERS = {
    "matrix": (lambda v: {"gram": v}, lambda o: matrix_from_json(o["gram"])),
    "vector": (lambda v: {"coords": v}, lambda o: vector_from_json(o).coords),
    "scalar": (lambda v: {"coef": v}, lambda o: complex_from_json(o["coef"])),
    "operator": (lambda v: {"backend": "dense", "domain_basis": v, "action": v},
                 operator_matrices),
    "rule": (lambda v: {"terms": v}, rule_from_json),
    "weights": (lambda v: {"kind": "finite", "weights": v},
                lambda o: _space_from_json(o).weights),
    "table": (lambda v: {"space_pair": {"backend": "dense", "dim": 2},
                         "probability": {"kind": "finite", "weights": [0.5, 0.5]},
                         "variable": {"kind": "table", "values": v}},
              lambda o: _variable(o).values),
}


class TestDecodedWhileParsed:
    """``json.loads`` with :func:`decode_arrays` gives every reader the
    bits, or the error, of the plain parse."""

    @settings(max_examples=400, deadline=None)
    @given(operand_values())
    def test_every_reader_sees_the_plain_parse(self, v):
        for name, (payload, reader) in READERS.items():
            text = json.dumps({"outer": [payload(v)]})
            plain = outcome(lambda o: reader(o["outer"][0]), text)
            decoded = outcome(lambda o: reader(o["outer"][0]), text,
                              object_hook=decode_arrays)
            assert decoded == plain, name

    @pytest.mark.parametrize("v,decoded", [
        ([[1, 2], [3, 4]], True), ([[[1, 0]], [[True, -0.0]]], True), ([[]], True),
        ([[1, 2], [3]], False), ([["1"]], False), ([[None]], False),
        ([[2 ** 64]], False), ([[{"re": 1}]], False), ([1, 2], False), ([], False),
    ])
    def test_what_is_decoded(self, v, decoded):
        got = json.loads(json.dumps({"m": v}), object_hook=decode_arrays)["m"]
        assert isinstance(got, np.ndarray) == decoded
        if decoded:
            assert np.array_equal(got, np.asarray(v))
        else:
            assert got == v

    @pytest.mark.parametrize("payload,message", [
        ({"scenarios": [[1, 2]]}, "the file must be an object with a list of scenarios"),
        ({"scenarios": [{"op": "friedrichs", "space": {"backend": "sequence",
                                                       "truncation": 8},
                         "generator": {"terms": [[1, 2]]}}]},
         "expected an object, got list"),
        ({"scenarios": [{"op": "norm", "p": 2.0, "x": [[3, 0], [4, 0]]}]},
         "expected an object, got list"),
        ({"scenarios": [{"op": "hilbert-consistency", "space": [[2]],
                         "A": {"backend": "dense"}, "samples": [[1, 2]]}]},
         "expected an object, got list"),
        ({"scenarios": [{"op": "weak-expectation",
                         "space_pair": {"backend": "dense", "dim": 2},
                         "probability": {"kind": "finite", "weights": [[1, 2]]},
                         "variable": {"kind": "table", "values": [[1, 0], [0, 1]]}}]},
         "expected a list of numbers"),
        ({"scenarios": [{"op": "weak-expectation",
                         "space_pair": {"backend": "dense", "dim": 2},
                         "probability": {"kind": "finite", "weights": [0.5, 0.5]},
                         "variable": {"kind": "table",
                                      "values": [[1, 2], [2 ** 64, 0]]}}]},
         "expected a list of numbers or of [re, im] pairs"),
        ({"scenarios": [{"op": "norm", "id": [[1]], "p": 2.0, "x": {"coords": [1]}}]},
         "is not a plain, unique file name"),
        ({"scenarios": [{"op": "norm", "seed": [[1]], "p": 2.0, "x": {"coords": [1]}}]},
         "the seed must be an integer"),
        ({"scenarios": [{"op": "norm", "p": [[2.0]], "x": {"coords": [1]}}]},
         "'p' must be a number"),
    ], ids=["scenarios", "terms", "vector", "space-and-samples", "weights",
            "values-wide-int", "id", "seed", "p"])
    def test_malformed_files_still_exit_four(self, tmp_path, capsys, payload, message):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(payload))
        assert cli.main(["run", str(f)]) == 4
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


def test_parse_holds_less_than_the_text(tmp_path, monkeypatch):
    """Dense operands are arrays once ``formcalc run`` has read its file:
    the parsed scenarios hold less memory than the text of the file,
    where nested lists of floats hold over three times more."""
    rng = np.random.default_rng(3)
    scenarios = [{"id": f"s{k}", "op": "factorize",
                  "A": {"backend": "dense", "domain_basis": m.tolist(), "action": m.tolist()}}
                 for k, m in enumerate(rng.normal(size=(6, 24, 24, 2)))]
    f = tmp_path / "dense.json"
    f.write_text(json.dumps({"scenarios": scenarios}))
    held = []

    def measure(payload):
        # what the parse left alive, the text freed; then run nothing
        held.append(tracemalloc.get_traced_memory()[0] - before)
        return []

    monkeypatch.setattr(cli, "_scenario_list", measure)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert cli.main(["run", str(f)]) == 0
        before = tracemalloc.get_traced_memory()[0]
        measure(json.loads(f.read_text()))
    finally:
        tracemalloc.stop()
    size = f.stat().st_size
    assert held[0] < 0.5 * size
    assert held[1] > 3 * size       # the measure sees a plain parse's lists


def per_entry_csv_rows(G):
    """The row loop gram_csv_rows replaced: the reference."""
    rows = []
    for i, row in enumerate(np.asarray(G, dtype=complex)):
        for j, z in enumerate(row):
            rows.append([i, j, z.real, z.imag])
    return rows


def test_gram_csv_byte_identical(tmp_path):
    rng = np.random.default_rng(17)
    grams = [rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)),
             np.array([[-0.0, 5e-324 + 1e308j], [1 / 3, -2j]]),
             np.eye(3, dtype=int), np.zeros((0, 0))]
    header = ["i", "j", "re", "im"]
    for G in grams:
        write_csv(tmp_path / "got.csv", header, gram_csv_rows(G))
        write_csv(tmp_path / "want.csv", header, per_entry_csv_rows(G))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
