"""Vector logarithmic-potential equilibrium on a chain of compact sets.

Everything here runs in float64: the equilibrium problem feeds nth-root
asymptotics, whose own convergence is logarithmically slow, so double
precision is far beyond the accuracy the measurements can use.  The
energy is discretized with piecewise-constant densities on uniform
panels and exact closed-form double integrals of the log kernel, which
keeps the diagonal singularity out of the picture entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Largest variational residual a solve may return; above it the solve
#: raises EquilibriumError, which the CLI reports with exit status 3.
RESIDUAL_BOUND = 1e-4
#: Active-set passes before the solve gives up on a cycling free set.  When
#: every cell carries mass, one pass settles from the uniform start and two
#: from a random one; layouts whose supports leave cells empty take more.
MAX_PASSES = 50

ACTIVE_MASS_FACTOR = 1e-3


class EquilibriumError(RuntimeError):
    """Raised when the active set does not settle or the residual of the
    minimizer is above RESIDUAL_BOUND."""


def cumulative_ratios(p1, p2) -> dict:
    """Tail sums P_j of the two limit-ratio vectors on the unified index.

    P_j sums p1[j:] for j >= 0 and p2[-j:] for j < 0; both full sums
    equal one, so P_0 = 1 from either side.  The out-of-chain entries
    P_{m1+1} and P_{-m2-1} are zero.
    """
    p1 = tuple(float(v) for v in p1)
    p2 = tuple(float(v) for v in p2)
    for p in (p1, p2):
        if not p:
            raise ValueError("ratio vector is empty")
        if any(not 0 < v <= 1 for v in p):
            raise ValueError(f"ratios must lie in (0, 1], got {p}")
        if any(a < b for a, b in zip(p, p[1:])):
            raise ValueError(f"ratios must be non-increasing, got {p}")
        if abs(sum(p) - 1) > 1e-12:
            raise ValueError(f"ratios must sum to one, got {sum(p)}")
    m1 = len(p1) - 1
    m2 = len(p2) - 1
    big_p = {m1 + 1: 0.0, -m2 - 1: 0.0}
    for j in range(m1 + 1):
        big_p[j] = sum(p1[j:])
    for j in range(1, m2 + 1):
        big_p[-j] = sum(p2[j:])
    big_p[0] = 1.0
    return big_p


@dataclass(frozen=True)
class InteractionMatrix:
    """Tri-diagonal coupling matrix of the vector potential problem.

    Row/column r corresponds to chain level j = r - m2.  The diagonal
    holds P_j^2 and the off-diagonal -P_j P_{j+1} / 2; positive
    definiteness (a consequence of the principal-minor identity) is
    asserted by a Cholesky factorization at build time.
    """

    m1: int
    m2: int
    big_p: dict
    entries: np.ndarray = field(repr=False)

    def c(self, j: int, k: int) -> float:
        return float(self.entries[j + self.m2, k + self.m2])

    def levels(self):
        return range(-self.m2, self.m1 + 1)


def build_interaction_matrix(p1, p2) -> InteractionMatrix:
    """Assemble the coupling matrix from the limit-ratio vectors."""
    big_p = cumulative_ratios(p1, p2)
    m1 = len(p1) - 1
    m2 = len(p2) - 1
    order = m1 + m2 + 1
    mat = np.zeros((order, order))
    for j in range(-m2, m1 + 1):
        r = j + m2
        mat[r, r] = big_p[j] ** 2
        if j + 1 <= m1:
            mat[r, r + 1] = mat[r + 1, r] = -big_p[j] * big_p[j + 1] / 2
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise EquilibriumError("interaction matrix is not positive definite")
    return InteractionMatrix(m1=m1, m2=m2, big_p=big_p, entries=mat)


def _log_double_primitive(u):
    """Phi with Phi'' = log|u|, Phi(0) = Phi'(0) = 0."""
    u = np.asarray(u, dtype=float)
    # log 0 = -inf makes the zero entries nan; their limit is 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        out = u**2 * (2 * np.log(np.abs(u)) - 3) / 4
    out[u == 0] = 0.0
    return out


def panel_log_integral(z, c, d):
    """Exact integral of log|z-x| for x in [c,d]; z real or complex.

    The primitive (x-z) log(z-x) - x extends continuously through
    x = z, so the endpoint evaluation is valid even when z lies inside
    the panel.
    """
    z = complex(z)

    def prim(x):
        u = x - z
        if u == 0:
            return -x
        return (u * np.log(z - x) - x).real

    return prim(d) - prim(c)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1
    ind = np.arange(1, len(v) + 1)
    cond = u - css / ind > 0
    rho = ind[cond][-1]
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


@dataclass(frozen=True)
class ComponentGrid:
    """Uniform panel grid over one compact set of the chain.  Atoms off
    the interval become zero-width cells whose self-energy uses the
    panel width as a collapse scale."""

    edges: np.ndarray = field(repr=False)
    atoms: tuple = ()

    @property
    def mids(self) -> np.ndarray:
        mids = (self.edges[:-1] + self.edges[1:]) / 2
        if self.atoms:
            return np.concatenate([mids, np.array(self.atoms)])
        return mids

    @property
    def cells(self) -> int:
        return len(self.edges) - 1 + len(self.atoms)


def _make_grid(spec: dict, panels: int) -> ComponentGrid:
    """Grid of one set {"interval": (a, b), "atoms": (t, ...)}; atoms
    inside the interval are dropped."""
    interval = spec["interval"]
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError(f"degenerate interval {interval}")
    off = tuple(
        float(t) for t in spec.get("atoms", ()) if not a <= float(t) <= b
    )
    return ComponentGrid(edges=np.linspace(a, b, panels + 1), atoms=off)


def _kernel_block(ga: ComponentGrid, gb: ComponentGrid) -> np.ndarray:
    """Panel-averaged -log|x-y| energies between two grids.

    The panel-panel part evaluates the double primitive Phi once, on the
    (na+1) x (nb+1) grid of edge differences; the four corner terms of
    each panel pair are shifted views of that one array.  Phi is even and
    a - b == -(b - a) in IEEE arithmetic, so the block for (gb, ga) is
    exactly the transpose of this one.
    """
    out = np.empty((ga.cells, gb.cells))
    ea, eb = ga.edges, gb.edges
    na, nb = len(ea) - 1, len(eb) - 1
    ha = np.diff(ea)
    hb = np.diff(eb)
    phi = _log_double_primitive(np.subtract.outer(ea, eb))
    raw = -(phi[1:, :-1] + phi[:-1, 1:] - phi[1:, 1:] - phi[:-1, :-1])
    out[:na, :nb] = raw / np.outer(ha, hb)
    # atom-panel: average of -log|t - x| over the panel
    for ia, t in enumerate(ga.atoms):
        for ib in range(nb):
            out[na + ia, ib] = -panel_log_integral(t, eb[ib], eb[ib + 1]) / hb[ib]
    for ib, t in enumerate(gb.atoms):
        for ia in range(na):
            out[ia, nb + ib] = -panel_log_integral(t, ea[ia], ea[ia + 1]) / ha[ia]
    # atom-atom: point kernel, with the collapse scale on the diagonal
    for ia, ta in enumerate(ga.atoms):
        for ib, tb in enumerate(gb.atoms):
            if ta == tb:
                scale = (ha.mean() + hb.mean()) / 2
                out[na + ia, nb + ib] = -math.log(scale / 4)
            else:
                out[na + ia, nb + ib] = -math.log(abs(ta - tb))
    return out


@dataclass
class EquilibriumSolution:
    """Minimizer of the discretized vector energy.

    ``masses[j]`` is the probability vector over the cells of grid j;
    ``omega[j]`` the variational constant (minimum of the combined
    potential over the grid).
    """

    matrix: InteractionMatrix
    grids: dict
    masses: dict
    omega: dict
    residual: float
    iterations: int

    def potential(self, j: int, z) -> float:
        """Logarithmic potential of component j at z (real or complex),
        using the exact panel integrals."""
        grid = self.grids[j]
        w = self.masses[j]
        edges = grid.edges
        total = 0.0
        for i in range(len(edges) - 1):
            if w[i] == 0:
                continue
            h = edges[i + 1] - edges[i]
            total -= w[i] * panel_log_integral(z, edges[i], edges[i + 1]) / h
        for ia, t in enumerate(grid.atoms):
            m = w[len(edges) - 1 + ia]
            if m:
                total -= m * math.log(abs(complex(z) - t))
        return total

    def eval_G(self, j: int, z) -> float:
        """nth-root limit at level j, defined for j in [-m2-1, m1]: exp(-U)
        with U = 2 sum_{k>j} omega[k]/P_k + P_j V_j(z) - P_{j+1} V_{j+1}(z),
        V the potentials; out-of-chain potentials drop out through P = 0."""
        m1, m2 = self.matrix.m1, self.matrix.m2
        if not -m2 - 1 <= j <= m1:
            raise ValueError(f"level {j} outside [-{m2 + 1}, {m1}]")
        big_p = self.matrix.big_p
        val = 2 * sum(self.omega[k] / big_p[k] for k in range(j + 1, m1 + 1))
        if big_p.get(j, 0.0):
            val += big_p[j] * self.potential(j, z)
        if big_p.get(j + 1, 0.0):
            val -= big_p[j + 1] * self.potential(j + 1, z)
        return math.exp(-val)


def _assemble(matrix: InteractionMatrix, grids: dict):
    """Energy matrix q of the discretized vector problem, with the cell
    offsets of each level.

    Only the blocks with j <= k are built; each off-diagonal one is
    written with its transpose into the mirror position.  The kernel
    blocks and the interaction matrix are exactly symmetric, so q is too.
    """
    levels = list(matrix.levels())
    sizes = [grids[j].cells for j in levels]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = offsets[-1]
    q = np.zeros((total, total))
    for aj, j in enumerate(levels):
        rows = slice(offsets[aj], offsets[aj + 1])
        for ak in range(aj, len(levels)):
            k = levels[ak]
            cjk = matrix.c(j, k)
            if cjk == 0:
                continue
            block = cjk * _kernel_block(grids[j], grids[k])
            cols = slice(offsets[ak], offsets[ak + 1])
            q[rows, cols] = block
            if ak > aj:
                q[cols, rows] = block.T
    return q, offsets, levels


def _split(w: np.ndarray, offsets, levels) -> dict:
    return {
        j: w[offsets[a]:offsets[a + 1]] for a, j in enumerate(levels)
    }


def _variational_state(q, w, offsets, levels):
    """Constants (minimum combined potential per level) and the residual
    of the equilibrium conditions restricted to carrying cells."""
    grad = q @ w
    omega = {}
    residual = 0.0
    for a, j in enumerate(levels):
        seg = slice(offsets[a], offsets[a + 1])
        pot = grad[seg]
        mass = w[seg]
        omega[j] = float(pot.min())
        active = mass > ACTIVE_MASS_FACTOR / len(mass)
        if active.any():
            residual = max(residual, float(pot[active].max() - omega[j]))
    return omega, residual


def _active_set_solve(q, w, offsets, levels):
    """Minimize w q w over the product of simplices, starting from the
    cells where ``w`` is positive.

    Each pass solves the equality-constrained KKT system exactly on the
    free cells, then keeps the free cells that came out positive and frees
    every fixed cell whose reduced potential 2 q w + B^T nu is negative
    (an active-set method for the convex quadratic; Lawson & Hanson,
    *Solving Least Squares Problems*, 1974, ch. 23).  Returns the
    minimizer and the number of passes.
    """
    n, nl = len(w), len(levels)
    level_of = np.repeat(np.arange(nl), np.diff(offsets))
    free = w > 0
    for passes in range(1, MAX_PASSES + 1):
        idx = np.flatnonzero(free)
        nf = len(idx)
        b = (level_of[idx] == np.arange(nl)[:, None]).astype(float)
        kkt = np.zeros((nf + nl, nf + nl))
        kkt[:nf, :nf] = 2 * q[np.ix_(idx, idx)]
        kkt[:nf, nf:] = b.T
        kkt[nf:, :nf] = b
        vec = np.concatenate([np.zeros(nf), np.ones(nl)])
        try:
            sol = np.linalg.solve(kkt, vec)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(kkt, vec, rcond=None)
        w = np.zeros(n)
        w[idx] = sol[:nf]
        reduced = 2 * (q @ w) + sol[nf:][level_of]
        next_free = np.where(free, w > 0, reduced < 0)
        if (next_free == free).all():
            return w, passes
        if np.bincount(level_of[next_free], minlength=nl).min() == 0:
            raise EquilibriumError(
                f"a level lost every carrying cell after {passes} passes"
            )
        free = next_free
    raise EquilibriumError(
        f"active set still changing after {MAX_PASSES} passes"
    )


def solve_equilibrium(
    matrix: InteractionMatrix,
    sets: dict,
    panels_per_set: int,
    init: str = "uniform",
    seed: int = 0,
) -> EquilibriumSolution:
    """Minimize the coupled log energy over the product of simplices.

    ``sets`` maps each level j in [-m2, m1] to a dict
    {"interval": (a, b)}, with "atoms": (t, ...) when the level has
    atoms.  The objective is a convex quadratic, so an active-set solve
    finds the discrete minimizer exactly: ``init`` ("uniform", or "random" with ``seed``) only picks
    the cells it starts from, and ``iterations`` counts its passes.
    Raises EquilibriumError if the active set does not settle or the
    variational residual of the result is above ``RESIDUAL_BOUND``.
    """
    grids = {j: _make_grid(sets[j], panels_per_set) for j in matrix.levels()}
    q, offsets, levels = _assemble(matrix, grids)

    if init == "uniform":
        w = np.concatenate(
            [np.full(grids[j].cells, 1.0 / grids[j].cells) for j in levels]
        )
    elif init == "random":
        rng = np.random.default_rng(seed)
        w = np.concatenate(
            [
                project_simplex(rng.random(grids[j].cells))
                for j in levels
            ]
        )
    else:
        raise ValueError(f"unknown init {init!r}")

    w, passes = _active_set_solve(q, w, offsets, levels)
    omega, residual = _variational_state(q, w, offsets, levels)
    if residual > RESIDUAL_BOUND:
        raise EquilibriumError(
            f"variational residual {residual:.3e} above the bound "
            f"{RESIDUAL_BOUND:.1e} after {passes} passes"
        )
    return EquilibriumSolution(
        matrix=matrix,
        grids=grids,
        masses=_split(w, offsets, levels),
        omega=omega,
        residual=residual,
        iterations=passes,
    )


def arcsine_potential(z, a=-1.0, b=1.0) -> float:
    """Closed-form log potential of the arcsine law on [a, b]: the Robin
    constant log(4/(b-a)) minus log of the exterior Joukowski factor."""
    u = (2 * complex(z) - a - b) / (b - a)
    s = np.sqrt(u * u - 1)
    if abs(u + s) < 1:
        s = -s
    phi = u + s
    return math.log(4.0 / (b - a)) - math.log(abs(phi))
