"""The CSV kernel against CPython's ``format(v, ".17g")`` on every cell."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sepdyn import _csvtext
from sepdyn._csvtext import csv_rows


def reference(block) -> bytes:
    """The oracle: each cell through ``format(v, ".17g")``, joined by ``,`` and ``\\n``."""
    return "".join(",".join(format(float(v), ".17g") for v in row) + "\n"
                   for row in block).encode()


def assert_cells_match(values, cols=1):
    values = np.asarray(values, dtype=float)
    block = np.concatenate([values, np.ones(-values.size % cols)]).reshape(-1, cols)
    got = csv_rows(block).tobytes()
    if got != reference(block):
        pairs = zip(got.decode().replace("\n", ",").split(","), block.ravel())
        wrong = [(text, format(float(v), ".17g")) for text, v in pairs
                 if text != format(float(v), ".17g")]
        pytest.fail(f"{len(wrong)} cells differ, e.g. {wrong[:5]}")


def adversarial() -> list[float]:
    """Zeros, extremes, powers of ten, notation switches, 17-digit carries and ties."""
    values = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
              9.9999999999999999e-5, 9.9999999999999999e15, 0.99999999999999989,
              1234567890123456.25, 1234567890123456.75, 1234567890123455.25,
              float("inf"), float("nan")]
    for k in range(-323, 309):
        values.append(float(f"1e{k}"))
    for x in [1e-5, 1e-4, 1e16, 1e17]:
        values.append(x)
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        for x in list(values):
            values += [np.nextafter(x, 0.0), np.nextafter(x, np.inf)]
    values += [2.0**53 + i for i in range(-64, 65)]
    values += [2.0**k for k in range(-1074, 1024, 7)]
    return values + [-x for x in values]


class TestKernel:
    def test_adversarial_values(self):
        values = adversarial()
        for cols in (1, 7):
            assert_cells_match(values, cols)

    @pytest.mark.parametrize("value, text", [
        (1234567890123456.25, b"1234567890123456.2"),  # exact 17-digit ties round to even
        (1234567890123456.75, b"1234567890123456.8"),
        (-0.0, b"-0"),
        (9.9999999999999999e-5, b"0.0001"),  # the 17-digit carry
        (1e16, b"10000000000000000"),
        (1e17, b"1e+17"),
        (1e-5, b"1.0000000000000001e-05"),
        (-2.2250738585072014e-308, b"-2.2250738585072014e-308"),
    ])
    def test_one_row_one_column(self, value, text):
        assert csv_rows(np.array([[value]])).tobytes() == text + b"\n"

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20).integers(0, 2**64, 110_000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)][:100_000]
        assert values.size == 100_000
        assert_cells_match(values, 10)

    @given(arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 6)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_finite_arrays(self, block):
        assert csv_rows(block).tobytes() == reference(block)

    def test_realistic_cells_are_certified(self):
        """Amplitudes and diagnostics of ordinary size need no per-cell fallback."""
        rng = np.random.default_rng(3)
        values = rng.standard_normal(20_000) * 10.0 ** rng.uniform(-8, 2, 20_000)
        *_, certified = _csvtext._round17(np.abs(values))
        assert certified.all()

    def test_one_and_its_neighbours_are_certified(self):
        """Norms, overlaps and purities at or a few ulps from 1 stay on the vectorized path."""
        values = np.array([1.0, np.nextafter(1.0, 0.0), 1 - 2**-52, 1 - 5 * 2**-53,
                           1 + 2**-52, 1 + 3 * 2**-52, 0.001, 0.1, np.nextafter(0.1, 1.0),
                           10.0, 1e5])
        *_, certified = _csvtext._round17(values)
        assert certified.all()
        assert_cells_match(values)
