"""The JSON wire decoders and the CSV rows of a gram."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from formcalc.reporting import (
    MalformedOperand, array_from_json, complex_from_json, gram_csv_rows,
    matrix_from_json, write_csv,
)


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
