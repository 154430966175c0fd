import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nikmop.equilibrium import (
    EquilibriumError,
    _active_set_solve,
    _variational_state,
    arcsine_potential,
    build_interaction_matrix,
    cumulative_ratios,
    panel_log_integral,
    panel_pair_energy,
    project_simplex,
    robin_constant,
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
    assert m.order == 1
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
    assert abs(panel_pair_energy(0.0, 1.0, 0.0, 1.0) - 1.5) < 1e-12


def test_panel_log_integral_against_riemann():
    z = 2.0 + 0.7j
    c, d = -0.5, 0.25
    xs = np.linspace(c, d, 20001)
    mids = (xs[:-1] + xs[1:]) / 2
    brute = float(np.log(np.abs(z - mids)).sum() * (xs[1] - xs[0]))
    assert abs(panel_log_integral(z, c, d) - brute) < 1e-8


def test_classical_equilibrium_is_arcsine():
    matrix = build_interaction_matrix((1.0,), (1.0,))
    sol = solve_equilibrium(matrix, {0: (-1.0, 1.0)}, panels_per_set=256)
    assert sol.residual <= 1e-4
    masses = sol.masses[0]
    assert abs(masses.sum() - 1.0) < 1e-12
    # Symmetric density, half the mass on each side.
    assert abs(masses[: len(masses) // 2].sum() - 0.5) < 1e-3
    assert abs(sol.omega[0] - math.log(2)) < 5e-3
    assert abs(sol.potential(0, 2.0) - arcsine_potential(2.0)) < 2e-3
    assert abs(robin_constant(-1.0, 1.0) - math.log(2)) < 1e-15


def test_equal_ratio_vector_problem_converges():
    matrix = build_interaction_matrix(*equal_ratio_vectors(1, 1))
    sets = {-1: (-3.0, -2.0), 0: (-1.0, 1.0), 1: (2.0, 3.0)}
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


def test_solution_serialization_round_trip():
    matrix = build_interaction_matrix((1.0,), (1.0,))
    sol = solve_equilibrium(matrix, {0: (-1.0, 1.0)}, panels_per_set=64)
    blob = json.loads(sol.to_json())
    assert blob["residual"] == sol.residual
    assert len(blob["masses"]["0"]) == 64


def test_atom_cells_stay_legal():
    matrix = build_interaction_matrix((1.0,), (1.0,))
    sol = solve_equilibrium(
        matrix,
        {0: {"interval": (-1.0, 1.0), "atoms": (1.5,)}},
        panels_per_set=64,
    )
    assert sol.residual <= 1e-4
    assert abs(sol.masses[0].sum() - 1.0) < 1e-12


def test_unreachable_tolerance_raises():
    matrix = build_interaction_matrix(*equal_ratio_vectors(1, 1))
    sets = {-1: (-3.0, -2.0), 0: (-1.0, 1.0), 1: (2.0, 3.0)}
    with pytest.raises(EquilibriumError):
        solve_equilibrium(
            matrix, sets, panels_per_set=32, tol=1e-18, init="random", seed=3
        )
