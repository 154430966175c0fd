import ast
import pathlib

import pytest
from mpmath import mp

import nikmop
from nikmop.fixed import CAUCHY_GUARD_BITS, exact_parts, fixed

PACKAGE = pathlib.Path(nikmop.__file__).parent


@pytest.mark.parametrize(
    "values, guard, want",
    [
        ((0, 2), 0, ([0, 1], 1)),
        ((-4, 0), 0, ([-1, 0], 2)),
        ((0, 2), CAUCHY_GUARD_BITS, ([0, 1 << CAUCHY_GUARD_BITS], 1 - CAUCHY_GUARD_BITS)),
        ((0, 0), 3, ([0, 0], -3)),
    ],
)
def test_fixed_maps_a_zero_to_zero(values, guard, want):
    # A zero's exponent is 0, above the finest exponent of the others.
    assert fixed([mp.mpf(v) for v in values], guard) == want


@pytest.mark.parametrize(
    "z, want",
    [
        (0, ([0], 0)),
        (mp.mpf(-12), ([-3], 2)),
        (mp.mpc(0, 4), ([0, 1], 2)),
        (mp.mpc("0.75", 6), ([3, 24], -2)),
    ],
)
def test_exact_parts(z, want):
    assert exact_parts(z) == want


def test_only_fixed_reads_or_builds_number_parts():
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        if path.name != "fixed.py":
            for needle in ("._mpf_", "._mpc_", "mp.mpf(("):
                assert needle not in text, (path.name, needle)
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("nikmop")
            ):
                private = [
                    a.name for a in node.names
                    if a.name.startswith("_") and not a.name.startswith("__")
                ]
                assert not private, (path.name, private)
