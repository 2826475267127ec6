"""The CSV kernel prints every float byte for byte as ``"%.17g" % x`` and every count as
``"%d" % n``, on the array path and on the per-value path."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sweepvi import csvtext
from sweepvi.csvtext import format_block

SRC = Path(__file__).resolve().parents[1] / "src"
COLS = 7


def expected(values, counts) -> bytes:
    """The rows as Python formats them, one value at a time."""
    fmt = ",".join(["%.17g"] * values.shape[1]) + ",%d\n"
    return "".join([fmt % (*row, n) for row, n in zip(values.tolist(), counts.tolist())]).encode()


def block(values, counts=None):
    """``values`` laid out in rows of ``COLS``, zero-padded, with a count per row; the
    block is above the crossover, so the array path formats it."""
    values = np.asarray(values, dtype=float).ravel()
    values = np.concatenate([values, np.zeros(-values.size % COLS)]).reshape(-1, COLS)
    if counts is None:
        counts = np.arange(values.shape[0])
    assert values.size + counts.size >= csvtext._CROSSOVER
    return values, np.asarray(counts, dtype=np.int64)


def assert_prints_as_python(values, counts=None):
    values, counts = block(values, counts)
    assert format_block(values, counts) == expected(values, counts)


def certified(values) -> np.ndarray:
    """Where the array path itself wrote the value, not the per-value fallback."""
    values = np.asarray(values, dtype=float).reshape(-1, 1)
    return csvtext._float_words(values)[1].ravel()


def test_random_bit_patterns_over_every_exponent():
    rng = np.random.default_rng(20261020)
    bits = rng.integers(0, 2 ** 63, size=(4096, 8), dtype=np.uint64)
    bits[:2048, 0] = 0                      # the first half: one pattern per biased exponent
    exponent = np.arange(2048, dtype=np.uint64)
    bits[:2048] = (bits[:2048] & np.uint64(2 ** 52 - 1)) | (exponent[:, None] << np.uint64(52))
    bits[:, ::2] |= np.uint64(2 ** 63)      # half of them negative
    for chunk in np.split(bits.view(np.float64).ravel(), 8):
        assert_prints_as_python(chunk)


def test_random_values_of_every_fast_decade_are_certified_and_exact():
    rng = np.random.default_rng(7)
    k = np.repeat(np.arange(-38, 38), 64)
    values = rng.uniform(1.0, 10.0, k.size) * 10.0 ** k.astype(float)
    values[::3] *= -1
    # from 1e13 to 1e16 the fraction of y = |x| 10^(16-k) is a multiple of 1/64 or
    # coarser, so many values there are exact ties, which the fallback rounds
    assert certified(values[(k < 13) | (k > 15)]).mean() > 0.999
    assert_prints_as_python(values)


def test_every_power_of_ten_and_its_neighbours():
    powers = np.array([float(f"1e{e}") for e in range(-45, 46)])
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
                             np.nextafter(np.nextafter(powers, 0), 0),
                             np.nextafter(np.nextafter(powers, np.inf), np.inf)])
    assert_prints_as_python(np.concatenate([values, -values]))


def test_exact_ties_round_half_even_through_the_fallback():
    # q + 1/4 and q + 3/4 for q of 16 digits print with 17: the 17th digit is a tie
    rng = np.random.default_rng(3)
    q = rng.integers(10 ** 15, 2 ** 51, size=512).astype(float)
    ties = np.concatenate([q + 0.25, q + 0.75])
    assert not certified(ties).any()
    assert_prints_as_python(ties)
    assert_prints_as_python(-ties)


def test_subnormals_zeros_and_non_finite_values():
    tiny = np.array([5e-324, 1e-320, 2.2250738585072009e-308, 2.2250738585072014e-308,
                     1e-310, np.nextafter(0, 1) * 3])
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
    values = np.tile(np.concatenate([tiny, -tiny, special]), 16)
    assert_prints_as_python(values)
    zeros = certified(special)
    assert zeros[:2].all() and not zeros[2:].any()


@pytest.mark.parametrize("k", [-5, -4, 16, 17])
def test_the_switch_between_fixed_and_exponent_forms(k):
    # %.17g prints 10^k <= |x| < 10^(k+1) fixed for -4 <= k < 17
    rng = np.random.default_rng(k + 100)
    values = rng.uniform(1.0, 10.0, 512) * 10.0 ** k
    values[::2] = np.round(values[::2], 2)           # trailing zeros, and a fraction left or not
    values[1::4] *= -1
    assert certified(values).mean() > 0.99
    assert_prints_as_python(values)
    text = format_block(*block(values)).decode()
    assert ("e" in text) == (k in (-5, 17))


def test_counts_from_zero_to_the_largest_int64():
    # a negative count, which a run never writes, goes to the fallback
    powers = 10 ** np.arange(19, dtype=np.int64)
    counts = np.concatenate([[0, 1, 2 ** 62, 2 ** 63 - 1, -1, -2 ** 63], powers, powers - 1,
                             powers + 1,
                             np.random.default_rng(1).integers(0, 2 ** 63 - 1, 256)])
    values = np.full((counts.size, COLS), 0.5)
    assert_prints_as_python(values, counts)


def test_a_block_below_the_crossover_is_formatted_value_by_value(monkeypatch):
    def never(*args):
        raise AssertionError("array path taken for a small block")

    monkeypatch.setattr(csvtext, "_float_words", never)
    values = np.array([[1 / 3, -0.0, np.inf, 1e-320], [2.5, 1e300, -1e-5, 123456.0]])
    counts = np.array([0, 2 ** 63 - 1])
    assert format_block(values, counts) == expected(values, counts)
    assert format_block(np.zeros((0, 3)), []) == b""


def test_the_tables_build_without_fractions_or_decimal():
    code = ("import sys\nimport sweepvi.csvtext\n"
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_the_power_tables_are_correctly_rounded():
    from fractions import Fraction

    for e, hi, lo in zip([16 - k for k in csvtext._DECADES], csvtext._SCALE.tolist(),
                         csvtext._SCALE_LO.tolist()):
        exact = Fraction(10) ** e
        assert hi == float(exact) and lo == float(exact - Fraction(hi))
    for k, nxt in zip(csvtext._DECADES, csvtext._NEXT.tolist()):
        assert nxt == float(Fraction(10) ** (k + 1))
    # the split of the high part is exact, into halves of at most 26 bits
    assert np.array_equal(csvtext._SCALE_HI + csvtext._SCALE_MID, csvtext._SCALE)
    for part in (csvtext._SCALE_HI, csvtext._SCALE_MID):
        mantissa = np.frexp(part)[0] * 2.0 ** 26
        assert np.array_equal(mantissa, np.round(mantissa))
