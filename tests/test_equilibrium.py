import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nikmop import equilibrium
from nikmop.equilibrium import (
    EquilibriumError,
    _active_set_solve,
    _assemble,
    _kernel_block,
    _make_grid,
    _variational_state,
    arcsine_potential,
    build_interaction_matrix,
    cumulative_ratios,
    panel_log_integral,
    project_simplex,
    solve_equilibrium,
)
from nikmop.asymptotics import equal_ratio_vectors


def test_cumulative_ratio_validation():
    with pytest.raises(ValueError):
        cumulative_ratios((), (1.0,))
    with pytest.raises(ValueError):
        cumulative_ratios((0.5, 0.5), (0.4, 0.6))
    with pytest.raises(ValueError):
        cumulative_ratios((0.7, 0.4), (1.0,))
    with pytest.raises(ValueError):
        cumulative_ratios((1.5, -0.5), (1.0,))


def test_tail_sums_on_unified_levels():
    big_p = cumulative_ratios((0.5, 0.5), (0.5, 0.5))
    assert big_p[0] == 1.0
    assert big_p[1] == 0.5
    assert big_p[-1] == 0.5
    assert big_p[2] == 0.0 and big_p[-2] == 0.0


def test_interaction_matrix_frozen_cases():
    m = build_interaction_matrix((1.0,), (1.0,))
    assert m.entries.shape == (1, 1)
    assert m.c(0, 0) == 1.0

    m = build_interaction_matrix((0.5, 0.5), (1.0,))
    assert m.c(0, 0) == 1.0
    assert m.c(1, 1) == 0.25
    assert m.c(0, 1) == m.c(1, 0) == -0.25

    m = build_interaction_matrix(*equal_ratio_vectors(1, 1))
    assert m.c(-1, -1) == 0.25
    assert m.c(0, 0) == 1.0
    assert m.c(-1, 0) == -0.25
    assert m.c(-1, 1) == 0.0


@settings(deadline=None, max_examples=80)
@given(
    v=st.lists(
        st.floats(
            min_value=-50, max_value=50, allow_nan=False, allow_infinity=False
        ),
        min_size=1,
        max_size=40,
    )
)
def test_project_simplex_properties(v):
    w = project_simplex(np.asarray(v))
    assert (w >= 0).all()
    assert abs(w.sum() - 1.0) < 1e-9
    again = project_simplex(w)
    assert np.abs(again - w).max() < 1e-9


def test_project_simplex_keeps_simplex_points():
    w = np.array([0.2, 0.3, 0.5])
    assert np.abs(project_simplex(w) - w).max() < 1e-12


def test_panel_self_energy():
    # Double integral of -log|x - y| over the unit square.
    g = _make_grid({"interval": (0.0, 1.0)}, 1)
    assert abs(_kernel_block(g, g)[0, 0] - 1.5) < 1e-12


def test_panel_log_integral_against_riemann():
    z = 2.0 + 0.7j
    c, d = -0.5, 0.25
    xs = np.linspace(c, d, 20001)
    mids = (xs[:-1] + xs[1:]) / 2
    brute = float(np.log(np.abs(z - mids)).sum() * (xs[1] - xs[0]))
    assert abs(panel_log_integral(z, c, d) - brute) < 1e-8


def test_classical_equilibrium_is_arcsine():
    matrix = build_interaction_matrix((1.0,), (1.0,))
    sol = solve_equilibrium(
        matrix, {0: {"interval": (-1.0, 1.0)}}, panels_per_set=256
    )
    assert sol.residual <= 1e-4
    masses = sol.masses[0]
    assert abs(masses.sum() - 1.0) < 1e-12
    # Symmetric density, half the mass on each side.
    assert abs(masses[: len(masses) // 2].sum() - 0.5) < 1e-3
    assert abs(sol.omega[0] - math.log(2)) < 5e-3
    assert abs(sol.potential(0, 2.0) - arcsine_potential(2.0)) < 2e-3


EQUAL_RATIO_11_SETS = {
    -1: {"interval": (-3.0, -2.0)},
    0: {"interval": (-1.0, 1.0)},
    1: {"interval": (2.0, 3.0)},
}


def test_equal_ratio_vector_problem_converges():
    matrix = build_interaction_matrix(*equal_ratio_vectors(1, 1))
    sets = EQUAL_RATIO_11_SETS
    sol = solve_equilibrium(matrix, sets, panels_per_set=128)
    assert sol.residual <= 1e-4
    for j in matrix.levels():
        assert abs(sol.masses[j].sum() - 1.0) < 1e-12
        assert (sol.masses[j] >= 0).all()
    retry = solve_equilibrium(
        matrix, sets, panels_per_set=128, init="random", seed=11
    )
    drift = max(
        float(np.abs(sol.masses[j] - retry.masses[j]).max())
        for j in matrix.levels()
    )
    # The random start carries mass on a few percent of the cells; the
    # active set frees the rest and lands on the uniform start's answer.
    assert sol.iterations == 1
    assert retry.iterations <= 3
    assert drift < 1e-12

    # The exterior functions behave like potentials of probability
    # measures: G is positive off the supports.
    z = 0.4 + 1.1j
    for j in matrix.levels():
        assert sol.eval_G(j, z) > 0


def test_active_set_drops_a_cell():
    # min w.q.w on the simplex: the equality solve gives (3/2, -1/2), so
    # the second cell must leave the free set to reach the minimizer (1, 0).
    q = np.array([[1.0, 2.0], [2.0, 5.0]])
    offsets = np.array([0, 2])
    w, passes = _active_set_solve(q, np.array([0.5, 0.5]), offsets, [0])
    assert passes == 2
    assert np.abs(w - np.array([1.0, 0.0])).max() < 1e-15
    omega, residual = _variational_state(q, w, offsets, [0])
    assert abs(omega[0] - 1.0) < 1e-15 and residual < 1e-15


def test_atom_cells_stay_legal():
    matrix = build_interaction_matrix((1.0,), (1.0,))
    sol = solve_equilibrium(
        matrix,
        {0: {"interval": (-1.0, 1.0), "atoms": (1.5,)}},
        panels_per_set=64,
    )
    assert sol.residual <= 1e-4
    assert abs(sol.masses[0].sum() - 1.0) < 1e-12


def test_residual_above_the_bound_raises(monkeypatch):
    # The bound is read at call time, so lowering it below the residual a
    # 32-panel solve reaches makes that solve raise.
    monkeypatch.setattr(equilibrium, "RESIDUAL_BOUND", 1e-18)
    matrix = build_interaction_matrix(*equal_ratio_vectors(1, 1))
    with pytest.raises(EquilibriumError, match="above the bound 1.0e-18"):
        solve_equilibrium(
            matrix, EQUAL_RATIO_11_SETS, panels_per_set=32, init="random", seed=3
        )


def masked_phi(u):
    """The double primitive evaluated on the nonzero entries only."""
    out = np.zeros_like(u)
    nz = u != 0
    out[nz] = u[nz] ** 2 * (2 * np.log(np.abs(u[nz])) - 3) / 4
    return out


def reference_block(ga, gb):
    """Kernel block from four separate corner evaluations of the double
    primitive, one masked call per corner."""
    out = np.empty((ga.cells, gb.cells))
    ea, eb = ga.edges, gb.edges
    na, nb = len(ea) - 1, len(eb) - 1
    ha, hb = np.diff(ea), np.diff(eb)
    raw = -(
        masked_phi(np.subtract.outer(ea[1:], eb[:-1]))
        + masked_phi(np.subtract.outer(ea[:-1], eb[1:]))
        - masked_phi(np.subtract.outer(ea[1:], eb[1:]))
        - masked_phi(np.subtract.outer(ea[:-1], eb[:-1]))
    )
    out[:na, :nb] = raw / np.outer(ha, hb)
    for ia, t in enumerate(ga.atoms):
        for ib in range(nb):
            out[na + ia, ib] = -panel_log_integral(t, eb[ib], eb[ib + 1]) / hb[ib]
    for ib, t in enumerate(gb.atoms):
        for ia in range(na):
            out[ia, nb + ib] = -panel_log_integral(t, ea[ia], ea[ia + 1]) / ha[ia]
    for ia, ta in enumerate(ga.atoms):
        for ib, tb in enumerate(gb.atoms):
            if ta == tb:
                scale = (ha.mean() + hb.mean()) / 2
                out[na + ia, nb + ib] = -math.log(scale / 4)
            else:
                out[na + ia, nb + ib] = -math.log(abs(ta - tb))
    return out


def reference_assemble(matrix, grids):
    """Every block on both sides of the diagonal, then symmetrized."""
    levels = list(matrix.levels())
    offsets = np.concatenate([[0], np.cumsum([grids[j].cells for j in levels])])
    q = np.zeros((offsets[-1], offsets[-1]))
    for aj, j in enumerate(levels):
        for ak, k in enumerate(levels):
            if matrix.c(j, k):
                q[offsets[aj]:offsets[aj + 1], offsets[ak]:offsets[ak + 1]] = (
                    matrix.c(j, k) * reference_block(grids[j], grids[k])
                )
    return (q + q.T) / 2


@pytest.mark.parametrize(
    "ratios, sets",
    [
        (equal_ratio_vectors(1, 1), EQUAL_RATIO_11_SETS),
        (
            equal_ratio_vectors(2, 1),
            {
                -1: {"interval": (-3.1, -2.0)},
                0: {"interval": (-1.0, 1.0)},
                1: {"interval": (2.0, 3.05)},
                2: {"interval": (5.0, 6.0)},
            },
        ),
        (
            equal_ratio_vectors(1, 1),
            {
                -1: {"interval": (-3.0, -2.0), "atoms": (-1.5,)},
                0: {"interval": (-1, 1), "atoms": (1.5,)},
                1: {"interval": (2.0, 3.0)},
            },
        ),
    ],
    ids=["equal_ratio_11", "equal_ratio_21", "off_interval_atoms"],
)
def test_assembly_matches_two_sided_four_corner_reference(ratios, sets):
    # One double-primitive evaluation per edge pair and the mirrored upper
    # blocks give the very floats of the four-corner, two-sided assembly.
    matrix = build_interaction_matrix(*ratios)
    grids = {j: _make_grid(spec, 48) for j, spec in sets.items()}
    q, _, _ = _assemble(matrix, grids)
    assert q.tobytes() == reference_assemble(matrix, grids).tobytes()
    assert np.array_equal(q, q.T)
