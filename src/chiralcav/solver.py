"""Weak-excitation steady state of the driven atom-cavity system.

The expectation-value amplitudes v = (a, sigma_1 ... sigma_N) obey the
linear system  M v = rhs  with

    row 0 :  (i delta_c - kappa/2) a - i g sum_mu e^{-i xi p_mu} sigma_mu
             = -sqrt(kappa_wg) a_in
    row mu:  (i delta - 1/2) sigma_mu
             - gamma_L sum_{nu > mu} e^{i xi (p_nu - p_mu)} sigma_nu
             - gamma_R sum_{nu < mu} e^{i xi (p_mu - p_nu)} sigma_nu
             - i g e^{+i xi p_mu} a  =  0

where p_mu are the atom positions in units of the lattice spacing
(p_mu = mu - 1 for the equidistant array).  The cascaded structure of the
atom block -- emission to the left drives atoms at smaller positions only,
emission to the right the converse -- is what produces the chiral
interference the rest of the package probes.

The reflected amplitude follows from the input-output boundary relation
a_out + a_in = sqrt(kappa_wg) a, i.e. r = sqrt(kappa_wg) a / a_in - 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import SolverError, ValidationError
from .params import DriveParams, SystemParams, require_valid

#: condition-number estimate above which a system counts as degenerate
COND_MAX = 1e12

#: relative singular-value cutoff used to identify an exact null space
_NULL_CUTOFF = 1e-13


@dataclass(frozen=True)
class LinearSystem:
    """Dense complex steady-state system; index 0 is the cavity mode."""

    matrix: np.ndarray
    rhs: np.ndarray


@dataclass(frozen=True)
class SteadyState:
    """Steady-state amplitudes and the derived reflection amplitude."""

    a: complex
    sigma: np.ndarray
    r: complex
    R: float


def _assemble(
    params: SystemParams,
    delta,
    delta_c=None,
    a_in: complex = 1.0,
    positions=None,
    gamma_L=None,
    xi=None,
    independent_atoms: bool = False,
    coupled=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Build (matrix, rhs) with arbitrary broadcastable leading axes.

    ``delta``, ``delta_c`` (default: locked to ``delta``), ``gamma_L``
    and ``xi`` (default: taken from ``params``) may be scalars or arrays
    of a common broadcast shape; an explicit ``gamma_L`` comes with
    gamma_R = 1 - gamma_L.  ``coupled`` is a boolean mask with leading
    axes ``(..., n)``: an atom whose entry is False gets no cavity and no
    atom-atom coupling, so it drops out exactly as if it were removed.
    The result has shape ``broadcast + (n+1, n+1)``.  Only the diagonal
    depends on the detunings, M = M0 + i diag(delta_c, delta, ..., delta):
    M0 is built over the shape of (gamma_L, xi, coupled) alone.
    """
    if positions is None:
        positions = np.arange(params.n_atoms)
    pos = np.asarray(positions, dtype=float)
    n = pos.size
    if gamma_L is None:
        gamma_L, gamma_R = np.asarray(params.gamma_L), np.asarray(params.gamma_R)
    else:
        gamma_L = np.asarray(gamma_L)
        gamma_R = 1.0 - gamma_L
    xi = np.asarray(params.xi if xi is None else xi)
    delta, delta_c = np.asarray(delta), np.asarray(delta if delta_c is None else delta_c)
    base = np.broadcast_shapes(gamma_L.shape, xi.shape)
    if coupled is not None:
        base = np.broadcast_shapes(base, coupled.shape[:-1])
    lead = np.broadcast_shapes(base, delta.shape, delta_c.shape)

    m0 = np.zeros(base + (n + 1, n + 1), dtype=complex)
    if n:
        sep = pos[None, :] - pos[:, None]  # sep[mu, nu] = p_nu - p_mu
        if not independent_atoms:
            phase = np.exp(1j * np.multiply.outer(xi, np.abs(sep)))
            gl, gr = gamma_L[..., None, None], gamma_R[..., None, None]
            m0[..., 1:, 1:] = np.where(sep > 0, -gl * phase, 0.0) + np.where(
                sep < 0, -gr * phase, 0.0
            )
        cav_phase = np.exp(1j * np.multiply.outer(xi, pos))
        m0[..., 0, 1:] = -1j * params.g * np.conj(cav_phase)
        m0[..., 1:, 0] = -1j * params.g * cav_phase
    if coupled is not None:
        # an uncoupled atom loses every off-diagonal entry
        atoms = np.broadcast_to(coupled, base + (n,))
        on = np.concatenate([np.ones(base + (1,), dtype=bool), atoms], axis=-1)
        m0 = np.where(on[..., :, None] & on[..., None, :], m0, 0.0)

    kappa = params.kappa_wg + params.kappa_sc
    matrix = m0 if base == lead else np.broadcast_to(m0, lead + m0.shape[-2:]).copy()
    matrix[..., 0, 0] = 1j * delta_c - kappa / 2.0
    idx = np.arange(1, n + 1)
    matrix[..., idx, idx] = (1j * delta - 0.5)[..., None]
    rhs = np.zeros(lead + (n + 1,), dtype=complex)
    rhs[..., 0] = -np.sqrt(params.kappa_wg) * a_in
    return matrix, rhs


def build_linear_system(
    params: SystemParams,
    drive: DriveParams,
    positions=None,
    independent_atoms: bool = False,
) -> LinearSystem:
    """Steady-state system for ``params`` under ``drive``.

    ``positions`` selects atom sites in units of the lattice spacing
    (default: 0 .. n_atoms-1).  ``independent_atoms=True`` zeroes the
    atom-atom block, keeping each atom's full decay rate: the reference
    configuration of cavity-coupled but mutually uncoupled atoms.
    """
    require_valid(params)
    matrix, rhs = _assemble(
        params,
        drive.delta,
        drive.delta_c,
        drive.a_in,
        positions=positions,
        independent_atoms=independent_atoms,
    )
    return LinearSystem(matrix=matrix, rhs=rhs)


def _solve_degenerate(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Resolve a singular system if its null modes are genuinely dark.

    A mode may be exactly degenerate (e.g. the undamped subradiant pair
    mode at gamma_L = 1/2, xi = n*pi, delta = 0).  If every null vector
    is simultaneously a left and right null vector and carries no drive,
    the mode is never populated when relaxing from vacuum and the
    physical steady state is the minimum-norm solution.  Anything else
    is a true degeneracy and raises SolverError.
    """
    u, s, vh = np.linalg.svd(matrix)
    scale = s[0]
    rank = int(np.count_nonzero(s > _NULL_CUTOFF * scale))  # lstsq's rcond rule
    solution = vh[:rank].conj().T @ ((u[:, :rank].conj().T @ rhs) / s[:rank])
    residual = np.linalg.norm(matrix @ solution - rhs)
    if residual > 1e-8 * max(1.0, np.linalg.norm(rhs)):
        raise SolverError(f"steady-state system is inconsistent (residual {residual:.3e})")
    for row in vh[rank:]:  # row.conj() is a right null vector; must be a left one too
        driven = abs(row @ rhs) > 1e-10 * np.linalg.norm(rhs)
        if np.linalg.norm(row @ matrix) > 1e-10 * scale or driven:
            raise SolverError("steady-state system is singular with a driven null mode")
    return solution


def _solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a flat stack of systems, shapes (k, d, d) and (k, d).

    Every point gets one 1-norm condition number (an LU inverse, not
    the SVD of the 2-norm; the two differ by at most a factor d, far
    inside the gap between flagged and healthy points).  Well-conditioned
    points share one batched dense solve; flagged points go through the
    dark-mode rule of ``_solve_degenerate``, whose errors name the flat
    index of the point.  Without flagged points the stack is solved as
    given, so a batch of one costs no more than a single solve.
    """
    cond = np.linalg.cond(matrix, 1)
    flagged = np.flatnonzero(~(cond <= COND_MAX))  # NaN counts as flagged
    fast = slice(None)
    if flagged.size:
        fast = np.ones(len(matrix), dtype=bool)
        fast[flagged] = False
    solution = np.empty_like(rhs)
    solution[fast] = np.linalg.solve(matrix[fast], rhs[fast][..., None])[..., 0]
    for i in flagged:
        try:
            solution[i] = _solve_degenerate(matrix[i], rhs[i])
        except SolverError as exc:
            raise SolverError(f"{exc} (flat index {i})") from exc
    return solution


def _reflection(params: SystemParams, delta, delta_c=None, a_in=1.0, **system) -> np.ndarray:
    """Reflection amplitudes r over the leading axes of ``_assemble``.

    No validation: callers check their inputs once before calling.
    """
    matrix, rhs = _assemble(params, delta, delta_c, a_in, **system)
    dim = rhs.shape[-1]
    solution = _solve(matrix.reshape(-1, dim, dim), rhs.reshape(-1, dim))
    r = np.sqrt(params.kappa_wg) * solution[:, 0] / a_in - 1.0
    return r.reshape(rhs.shape[:-1])


def solve_steady_state(
    system: LinearSystem, params: SystemParams, drive: DriveParams
) -> SteadyState:
    """Solve the linear system exactly and package the reflection amplitude."""
    require_valid(params)
    solution = _solve(system.matrix[None], system.rhs[None])[0]
    return _steady_state_from(solution, params, drive)


def _steady_state_from(
    solution: np.ndarray, params: SystemParams, drive: DriveParams
) -> SteadyState:
    a = complex(solution[0])
    r = np.sqrt(params.kappa_wg) * a / drive.a_in - 1.0
    R = float(np.square(np.abs(r)))  # the formula of reflectivity, bit for bit
    return SteadyState(a=a, sigma=solution[1:].copy(), r=complex(r), R=R)


def reflectivity(
    params: SystemParams,
    drive: DriveParams,
    positions=None,
    independent_atoms: bool = False,
) -> float:
    """Reflectivity R = |r|^2 for a single drive point, bit for bit the
    value :func:`reflectivity_batch` gives there."""
    r = reflection_amplitude(params, drive, positions, independent_atoms)
    return float(np.square(np.abs(r)))


def reflection_amplitude(
    params: SystemParams,
    drive: DriveParams,
    positions=None,
    independent_atoms: bool = False,
) -> complex:
    """Complex reflection amplitude r for a single drive point."""
    require_valid(params)
    r = _reflection(
        params,
        drive.delta,
        drive.delta_c,
        drive.a_in,
        positions=positions,
        independent_atoms=independent_atoms,
    )
    return complex(r)


def reflectivity_batch(
    params: SystemParams,
    delta,
    gamma_L=None,
    xi=None,
    positions=None,
    independent_atoms: bool = False,
) -> np.ndarray:
    """R over broadcastable arrays of (delta, gamma_L, xi), delta_c locked.

    Sweep points are solved as one batch with results in grid order.  An
    explicit ``gamma_L`` grid comes with gamma_R = 1 - gamma_L; otherwise
    both rates come from ``params``.  Errors from a degenerate point name
    its flat grid index.  R = np.square(np.abs(r)) has the same bits in a
    batch of any size (``**`` on a numpy scalar rounds through ``pow``).
    """
    require_valid(params)
    if gamma_L is not None:
        gamma_L = np.asarray(gamma_L, dtype=float)
        if not np.all((gamma_L >= 0.0) & (gamma_L <= 1.0)):
            raise ValidationError("gamma_L must lie in [0, 1]")
    for name, value in (("xi", xi), ("delta", delta)):
        if value is not None and not np.all(np.isfinite(value)):
            raise ValidationError(f"{name} must be finite")
    r = _reflection(
        params,
        delta,
        gamma_L=gamma_L,
        xi=xi,
        positions=positions,
        independent_atoms=independent_atoms,
    )
    return np.square(np.abs(r))


def _gershgorin_bound(matrix: np.ndarray) -> float:
    return float(np.max(np.sum(np.abs(matrix), axis=1)))


def relax_time_domain(
    params: SystemParams,
    drive: DriveParams,
    t_max: float = 1e8,
    dt: float | None = None,
    tol: float = 1e-9,
    positions=None,
    independent_atoms: bool = False,
) -> SteadyState:
    """Steady state by integrating the equations of motion from vacuum.

    Verification oracle independent of the linear-algebra solve path:
    a fixed-step classical 4th-order Runge-Kutta scheme for
    v' = M v - rhs starting from v = 0.  Because the equilibrium of the
    flow is a fixed point of every Runge-Kutta step, the iteration
    converges to the exact steady state irrespective of the step size;
    the step only has to sit inside the stability region, which
    dt = 1/(Gershgorin bound) guarantees.  The march is performed by
    repeated squaring of the one-step affine map, so slowly relaxing
    (narrow-dip) parameter points cost log rather than linear time.

    Convergence is declared when the state change across a doubling of
    the integration horizon drops below ``tol`` while decaying; failure
    to converge within ``t_max`` raises SolverError with the residual.
    Parameters must pass :func:`require_valid`, except that the oracle
    also takes the closed cavity kappa_wg = 0 (nothing drives it, r = -1).
    """
    require_valid(replace(params, kappa_wg=1.0) if params.kappa_wg == 0 else params)
    matrix, rhs = _assemble(
        params,
        drive.delta,
        drive.delta_c,
        drive.a_in,
        positions=positions,
        independent_atoms=independent_atoms,
    )
    dim = matrix.shape[0]
    bound = _gershgorin_bound(matrix)
    h = dt if dt is not None else (1.0 / bound if bound > 0 else 1.0)

    # one RK4 step of v' = M v - rhs is the affine map v -> P v + s
    hm = h * matrix
    eye = np.eye(dim, dtype=complex)
    horner = eye / 6.0 + hm / 24.0
    horner = eye / 2.0 + hm @ horner
    horner = eye + hm @ horner
    propagator = eye + hm @ horner
    offset = -h * horner @ rhs

    # doubling march: (P, s) for 2^k steps composes as (P @ P, P s + s),
    # and the state reached from v = 0 after 2^k steps is s itself
    state = offset  # state after one step from v = 0
    horizon = h
    change_prev = np.inf
    while horizon <= t_max:
        state_next = propagator @ state + state  # state after 2*horizon
        change = float(np.linalg.norm(state_next - state))
        if change < tol * max(1.0, float(np.linalg.norm(state_next))) and (
            change <= change_prev
        ):
            return _steady_state_from(state_next, params, drive)
        propagator = propagator @ propagator
        state = state_next
        change_prev = change
        horizon *= 2.0
    residual = np.linalg.norm(matrix @ state - rhs)
    raise SolverError(
        f"relaxation did not converge within t_max={t_max:g} "
        f"(state change {change_prev:.3e}, residual {residual:.3e}) "
        f"for params={params}, drive={drive}"
    )
