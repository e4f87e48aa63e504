"""Weak-excitation steady state of the driven atom-cavity system.

The expectation-value amplitudes v = (a, sigma_1 ... sigma_N) obey the
linear system  M v = rhs  with

    row 0 :  (i delta - kappa/2) a - i g sum_mu e^{-i xi p_mu} sigma_mu
             = -sqrt(kappa_wg) a_in
    row mu:  (i delta - 1/2) sigma_mu
             - gamma_L sum_{nu > mu} e^{i xi (p_nu - p_mu)} sigma_nu
             - gamma_R sum_{nu < mu} e^{i xi (p_mu - p_nu)} sigma_nu
             - i g e^{+i xi p_mu} a  =  0

where p_mu are the atom positions in units of the lattice spacing
(p_mu = mu - 1 for the equidistant array).  The cavity is locked to the
probe (delta_c = delta), so M = M0 + i delta I.  The reflected amplitude
follows from the input-output boundary relation
a_out + a_in = sqrt(kappa_wg) a, i.e. r = sqrt(kappa_wg) a / a_in - 1.
In the weak-excitation limit v is linear in a_in and r does not depend on
it, so the model is driven with a_in = 1: rhs[0] = -sqrt(kappa_wg).

The atom block is cascaded, so each atom is a two-port scatterer on the
waveguide: with w = i delta - 1/2, the source c = i g e^{i xi p} per unit a
and incoming right- and left-moving fields, sigma = (c + R_in + L_in)/w,
R_out = R_in + gamma_R sigma and L_out = L_in + gamma_L sigma; the cavity
sees O = g sum e^{-i xi p} sigma.  ``_fold`` composes the sorted sites by the
Redheffer star product in O(N), dividing by the Fabry-Perot denominator
D = 1 - e^{2 i xi dp} r_left r_atom at each junction; a = -sqrt(kappa_wg) /
(i delta - kappa/2 - i O).  One fold also reads out every prefix of the
chain (planning, and carving at xi = 0, where a subset's r depends only on
its size), each point closing from one end state that its count's site
fills, or every subset of its sites (carving).  At gamma_R = 0
(gamma_L = 1) the chain is a pure cascade (C. W. Gardiner, PRL 70, 2269
(1993); H. J. Carmichael, PRL 70, 2273 (1993)): no atom emits backwards, so
the segment's reflection and offset stay exactly 0 and every D is 1.  A fold
that is not split and has gamma_R = 0 at every point updates only the lines
of O; the terms it skips are exact zeros, so the bits stay, and
|w D| = |w| >= 1/2 never meets the dark-point rule.  Points with a
non-finite fold or |D| <= 1/COND_MAX (D = 0: a dark state) take the dark-point
rule ``_contour_mean``: the mean of the fold on a small circle around the
point.  The dense one-point ``build_linear_system``, ``solve_steady_state``,
``relax_time_domain`` are oracles.

A fold call allocates one block of 15 complex lines for all of its order-0
lines and writes every site update into it with ``out=``; a prefix fold's
end state, which has the prefix's shape, sits outside it.  One allocation,
because lines allocated one by one each fall below malloc's mmap
threshold, so the heap grows on every call, is trimmed when it ends and
faults in again on the next; one larger block, once freed, raises that
threshold and the heap is kept.  Each line is held once, and the state is
updated in place.  No product or quotient writes into one of its operands:
numpy may then take another inner loop (on size-1 arrays
``np.multiply(s, b, out=b)`` differs in the last bit from ``s * b`` on
some CPUs), while a sum or a minimum is exact in any loop.  Each output
line has the shape of the expression it replaces (the full batch at the
first site, whose zero state makes those values exact): the bits stay.
The block is local to the call: no state is kept between calls.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import SolverError, ValidationError
from .params import DriveParams, SystemParams, require_params, require_real, require_valid

#: a fold point whose smallest Fabry-Perot denominator |D| is at most
#: 1/COND_MAX takes the dark-point rule
COND_MAX = 1e12

#: the dark-point rule's K points on a circle of radius eps, and its bound
#: on |residue| / (eps max |r_k|), far above rounding and far below a pole
_K, _EPS, _RESIDUE_TOL = 8, 1e-3, 1e-14

#: relative state change across a doubled horizon at which relaxation stops,
#: and the horizon (units of 1/gamma) past which it raises SolverError
RELAX_TOL, RELAX_T_MAX = 1e-9, 1e8


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

    @property
    def R(self) -> float:
        """Reflectivity |r|^2, the formula of reflectivity bit for bit."""
        return float(np.square(np.abs(self.r)))


def _assemble(params: SystemParams, delta: float, positions=None) -> tuple[np.ndarray, np.ndarray]:
    """(matrix, rhs) of one drive point at a_in = 1, M = M0 + i delta I."""
    pos = np.asarray(np.arange(params.n_atoms) if positions is None else positions, dtype=float)
    n = pos.size
    matrix = np.zeros((n + 1, n + 1), dtype=complex)
    sep = pos[None, :] - pos[:, None]  # sep[mu, nu] = p_nu - p_mu
    phase = np.exp(1j * params.xi * np.abs(sep))
    matrix[1:, 1:] = np.where(sep > 0, -params.gamma_L * phase, 0.0) + np.where(
        sep < 0, -params.gamma_R * phase, 0.0
    )
    cav_phase = np.exp(1j * params.xi * pos)
    matrix[0, 1:] = -1j * params.g * np.conj(cav_phase)
    matrix[1:, 0] = -1j * params.g * cav_phase
    idx = np.arange(n + 1)  # delta enters the cavity and every atom alike
    matrix[idx, idx] = 1j * delta - np.where(idx == 0, params.kappa / 2.0, 0.5)
    rhs = np.zeros(n + 1, dtype=complex)
    rhs[0] = -np.sqrt(params.kappa_wg)
    return matrix, rhs


def _require_positions(positions) -> None:
    """Raise ValidationError unless ``positions`` is None or distinct finite sites in 1-D."""
    if positions is None:
        return
    pos = require_real("positions", positions)
    if pos.ndim != 1:
        raise ValidationError("positions must be a finite 1-D array")
    if np.unique(pos).size < pos.size:  # coincident atoms make a gain medium
        raise ValidationError("positions must be distinct")


def _drive_delta(drive: DriveParams, positions=None) -> float:
    """``drive.delta``, all that a drive sets, after checking ``drive`` and ``positions``."""
    require_params(drive, DriveParams, "drive")
    _require_positions(positions)
    return drive.delta


def build_linear_system(params: SystemParams, drive: DriveParams, positions=None) -> LinearSystem:
    """Steady-state system for ``params`` under ``drive``, at a_in = 1.

    ``positions`` selects atom sites in units of the lattice spacing
    (default: 0 .. n_atoms-1).
    """
    require_valid(params)
    return LinearSystem(*_assemble(params, _drive_delta(drive, positions), positions))


def _solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve one dense system; a singular one only if its null modes are dark.

    The rank counts the singular values above rounding, s > d eps s_max
    (numpy's ``matrix_rank`` rule).  A full-rank system, however
    ill-conditioned, gets the LU solve: at gamma_L = 1/2 + 1e-5 it is within
    3e-8 of the exact r, where the SVD formula is off by up to 1.5e-5.  A mode may
    be exactly degenerate (e.g. the undamped subradiant pair mode at
    gamma_L = 1/2, xi = n*pi, delta = 0).  If every null vector is
    simultaneously a left and right null vector and carries no drive, the
    mode is never populated when relaxing from vacuum and the physical
    steady state is the minimum-norm solution.  Anything else raises
    SolverError.
    """
    u, s, vh = np.linalg.svd(matrix)
    kept = s > s.size * np.finfo(float).eps * s[0]
    if kept.all():
        return np.linalg.solve(matrix, rhs)
    coeff = np.where(kept, (np.conj(u).T @ rhs) / np.where(kept, s, 1.0), 0.0)
    solution = np.conj(vh).T @ coeff
    residual = np.linalg.norm(matrix @ solution - rhs)
    if residual > 1e-8 * max(1.0, np.linalg.norm(rhs)):
        raise SolverError(f"steady-state system is inconsistent (residual {residual:.3e})")
    # a row of vh beyond the rank is a conjugated right null vector; it
    # must be a left one too and carry no drive
    null = vh[~kept]
    leaky = np.linalg.norm(null @ matrix, axis=-1) > 1e-10 * s[0]
    if np.any(leaky | (np.abs(null @ rhs) > 1e-10 * np.linalg.norm(rhs))):
        raise SolverError("steady-state system is singular with a driven null mode")
    return solution


def _fold(params, delta, pos, gl, xi, jet=False, prefix=None, split=False):
    """r (a_in = 1) and the smallest |D| of the fold over the sorted sites ``pos``;
    with ``jet`` also dr/d(delta) and d2r/d(delta)^2.

    The rate ``gl`` is per point, and gr = 1 - gl.  ``prefix`` (not with ``split``)
    closes each point's chain after its own first ``prefix`` sites, 0 to n:
    its end state (o, wd_min and the jet jo), shaped as the batch broadcast
    with ``prefix``, starts as the empty chain (0, inf, 0), the bare cavity,
    and the points of count k + 1 copy their lines into it after site k.
    ``split`` (not with ``jet``) doubles the rows, axis 0, at each site k:
    row i passes the site off by pure propagation, (rho phi^2, s phi, q phi,
    o), the zero-rate update bit for bit, and row i + 2^k takes the update;
    the first site ends up the top bit.  The segment left of a site gives
    R_out = rho L + s and O = q L + o for the field L entering it.  The jet of
    x, (x', x''/2) on a leading axis, rides beside the order-0 lines:
    jet(ab) = a jet(b) + b jet(a) + (0, a' b'), and c = a/b has jet
    (jet(a) - c jet(b))/b less (0, c' b'/b).

    The order-0 lines share one block of 15 complex lines, sized for the
    final 2^n split rows, one copy each: the state (rho, s, q, o); ten site
    lines (u, s phi, t, two scratch, ugl, wd, c, sig_0, sig_l); and one line
    that holds the real lines (wd_min, |w D|).  Site k reads rows
    [:2^k] and writes the on-rows [2^k:2^(k+1)], in place when not split:
    rho', s' and q' go into lines it has already read into u, s phi and t,
    and o' = o + c sig_0, wd_min and out = ugl + gr (over ugl, which the jet
    does not read) are sums or minima, exact in any inner loop.  Split, the
    off-rows then take (u, s phi, t) and keep o.

    Not split and with gl == 1 at every point (gr = 0), the update is the
    cascade: rho = s = 0 at every site, so u = ugl = s phi = out = 0, wd = w,
    sig_l = 1/w and |w D| = |w|, and a site computes only t = q phi,
    c = gl t + obs, sig_0 = src/w, q' = t (1 + gl sig_l) + obs sig_l and
    o' = o + c sig_0.  In the jet jrho = js = 0 and jwd = jw, so jl and step
    do not change along the chain.  sig_l, its gain 1 + gl sig_l (in the u
    line), |w| and jl are formed once per call, by the general update's own
    expressions.  Every term left out is an exact zero, added or multiplied,
    so the cascade has the general update's bits.
    """
    n = pos.size
    gr = 1.0 - gl
    cascade = not split and np.all(gl == 1.0)  # gamma_R = 0 at every point: rho, s and their jets stay 0
    batch = np.broadcast(delta, gl, xi).shape
    shape = (2**n, *batch[1:]) if split else batch  # a split batch has one row
    block = np.empty((15, *shape), dtype=complex)
    state, site = block[:4], block[4:14]  # state: (rho, s, q, o), updated in place
    real = block[14].reshape(-1).view(float).reshape(2, *shape)  # (wd_min, |w D|)

    xi = xi[..., None]
    cav = np.exp(1j * xi * pos)
    hop = np.exp(1j * xi * (pos - np.concatenate((pos[:1], pos[:-1]))))  # from the previous site
    sites = [hop, 1j * params.g * cav, params.g * np.conj(cav)]
    w = 1j * delta - 0.5
    jw = np.array([1j, 0.0]).reshape((2,) + (1,) * np.ndim(delta))  # dw/d(delta) = i
    jrho = js = jq = jo = 0.0 * jw
    rows = slice(0, 1) if split else ...  # the rows that hold the chain so far
    state[:, rows] = 0.0
    real[0][rows] = np.inf  # wd_min, of |w D|: w is the same at every site
    if prefix is None:  # every chain ends at the last site
        cuts, o_end, wd_end = (), state[3], real[0]
    else:  # each point's chain ends at its own count; all start as the empty chain
        cuts, end = np.unique(prefix).tolist(), np.broadcast_shapes(batch, np.shape(prefix))
        o_end, wd_end = np.zeros(end, dtype=complex), np.full(end, np.inf)
        jo_end = np.zeros((2, *end), dtype=complex) if jet else None
    with np.errstate(all="ignore"):  # D = 0 gives inf or nan: the dark-point rule takes it
        if cascade:  # wd = w at every site: sig_l, its gain 1 + gl sig_l, |w D| = |w| and jl are per call
            sig_l, gain, mag = site[9], site[0], real[1]  # gain takes the unused u line
            np.divide(1.0, w, out=sig_l)
            np.add(1.0, np.multiply(gl, sig_l, out=site[3]), out=gain)
            np.abs(w, out=mag)
            if jet:
                step = jw[0] / w
                jl = (0.0 - sig_l * jw) / w
                jl[1] -= jl[0] * step
        for k in range(n):
            live = k + 1 < n  # past the last site only o, wd_min and jo are read
            on = slice(rows.stop, 2 * rows.stop) if split else rows  # the rows that take the site
            phi, src, obs = (v[..., k] for v in sites)
            (rho, s, q, o), (rho_on, s_on, q_on, o_on) = state[:, rows], state[:, on]
            u, ps, t, a, b, ugl, wd, c, sig_0, sig_l = site[:, rows]
            wd_min, wd_on, mag = real[0][rows], real[0][on], real[1][rows]
            np.multiply(q, phi, out=t)
            np.add(np.multiply(t, gl, out=a), obs, out=c)
            if cascade:  # u = ugl = s phi = out = 0 and wd = w
                np.divide(src, w, out=sig_0)  # sigma = sig_l L + sig_0
            else:
                np.multiply(phi * phi, rho, out=u)  # the segment's reflection seen from this site
                np.multiply(u, gl, out=ugl)
                np.multiply(phi, s, out=ps)
                np.subtract(w, ugl, out=wd)
                np.divide(np.add(src, ps, out=a), wd, out=sig_0)
                np.abs(wd, out=mag)
                if live:
                    np.divide(np.add(1.0, u, out=a), wd, out=sig_l)
                    out = np.add(ugl, gr, out=ugl)  # nothing reads ugl after this
                    gain = np.add(1.0, np.multiply(gl, sig_l, out=a), out=b)
            if jet:  # jet(out) = jet(ugl); q' = t + c sig_l and o' = o + c sig_0
                jt = jq * phi
                jc = jt * gl
                if cascade:
                    jz = (0.0 - sig_0 * jw) / w  # phi js - sig_0 jwd at js = 0, jwd = jw
                else:
                    ju = phi * phi * jrho
                    jugl = ju * gl
                    jwd = jw - jugl
                    step = jwd[0] / wd
                    jz = (phi * js - sig_0 * jwd) / wd
                jz[1] -= jz[0] * step
                jo = jo + c * jz + sig_0 * jc
                jo[1] += jc[0] * jz[0]
                if live:
                    if not cascade:
                        jl = (ju - sig_l * jwd) / wd
                        jl[1] -= jl[0] * step
                        jrho, js = ju + out * jl + sig_l * jugl, phi * js + out * jz + sig_0 * jugl
                        jrho[1] += jugl[0] * jl[0]
                        js[1] += jugl[0] * jz[0]
                    jq = jt + c * jl + sig_l * jc
                    jq[1] += jc[0] * jl[0]
            np.minimum(wd_min, mag, out=wd_on)
            if live:
                if not cascade:
                    np.add(u, np.multiply(out, sig_l, out=a), out=rho_on)
                    np.add(ps, np.multiply(out, sig_0, out=a), out=s_on)
                np.multiply(t, gain, out=a)
                np.add(a, np.multiply(obs, sig_l, out=b), out=q_on)
            np.add(o, np.multiply(c, sig_0, out=a), out=o_on)
            if split:  # row i with site k off stays row i, with it on became row i + 2^k
                if live:
                    np.copyto(state[:3, rows], site[:3, rows])
                np.minimum(wd_min, np.abs(w), out=wd_min)
                rows = slice(0, on.stop)
            if k + 1 in cuts:  # the chains of k + 1 sites end here
                at = prefix == k + 1
                np.copyto(o_end, o_on, where=at)
                np.copyto(wd_end, wd_on, where=at)
                if jet:
                    np.copyto(jo_end, jo, where=at)
        den = 1j * delta - params.kappa / 2.0 - 1j * o_end
        a = -np.sqrt(params.kappa_wg) / den
        folded = [np.sqrt(params.kappa_wg) * a - 1.0, wd_end / np.abs(w)]
        if jet:
            jden = jw - 1j * (jo if prefix is None else jo_end)
            ja = -a * jden / den
            ja[1] -= ja[0] * jden[0] / den
            folded += [np.sqrt(params.kappa_wg) * ja[0], 2.0 * np.sqrt(params.kappa_wg) * ja[1]]
    if split:  # site k is bit k of the row: reverse the bits, the axes of (2,) * n
        folded = [v[np.arange(v.shape[0]).reshape((2,) * pos.size).T.reshape(-1)] for v in folded]
    return folded


def _contour_mean(params, index, delta, pos, gl, xi, prefix, split) -> np.ndarray:
    """(r, dr/d(delta), d2r/d(delta)^2) at the flagged flat ``index`` of a batch from
    the fold on a circle around each, as rows of a (3, points) array.

    The fold arguments are the batch's own: each distinct point behind ``index``
    is folded once, and each index reads its row.  For passive parameters a
    real-axis singularity of r(delta) is removable: the undamped mode has no
    cavity component, so it is neither driven nor seen.  The trapezoidal mean
    over delta + eps z_k, z_k = e^{2 pi i (k + 1/2)/K}, then converges
    geometrically to r.  The same samples give the residue, mean eps z_k r_k,
    which must vanish to rounding; otherwise the point raises SolverError
    under its flat index.  The Cauchy means r' = mean r_k/(eps z_k),
    r'' = 2 mean r_k/(eps z_k)^2 follow.
    """
    grid = np.broadcast_shapes(*map(np.shape, (delta, gl, xi, prefix)))
    size = np.prod(grid[split:], dtype=int)  # points per row
    points, at = np.unique(index % size, return_inverse=True)
    d, gl, xi, cut = (  # a column per point, behind the split batch's row axis
        None if v is None else np.broadcast_to(v, grid).reshape(-1)[points][(None,) * split + (..., None)]
        for v in (delta, gl, xi, prefix)
    )
    shift = _EPS * np.exp(2j * np.pi * (np.arange(_K) + 0.5) / _K)
    r = _fold(params, d + shift, pos, gl, xi, prefix=cut, split=split)[0]
    r = r.reshape(-1, points.size, _K)[index // size, at]
    residue = np.abs(np.mean(shift * r, axis=-1))
    driven = ~(residue <= _RESIDUE_TOL * _EPS * np.max(np.abs(r), axis=-1))  # NaN is driven
    if driven.any():
        fault = f"singular with a driven null mode (flat index {index[np.argmax(driven)]})"
        raise SolverError(f"steady-state system is {fault}")
    z = r / shift
    return np.stack([np.mean(v, axis=-1) for v in (r, z, 2.0 * z / shift)])


def _reflection(
    params: SystemParams, delta, *, positions=None, gamma_L=None, xi=None,
    derivatives: bool = False, subsets: bool = False, prefix=None,
):
    """r (a_in = 1) over the broadcast shape of ``delta``, ``gamma_L``, ``xi``
    (default: from ``params``; gamma_R = 1 - gamma_L) and ``prefix``, each
    point's count of leading sorted sites: one fold reads out every prefix
    of the chain.  ``subsets=True`` prepends
    an axis over the 2^n subsets of the n sorted sites, the first site the
    top bit; an absent atom keeps its site but loses every coupling, which
    makes it exactly the removed atom.  Each site doubles the rows, so that
    costs 2^n site updates and as many propagations, not n 2^n updates.
    Folded on arrays of the batch's ndim: a batch of one has the bits of
    the same point inside a batch.  Points with a non-finite fold or
    |D| <= 1/COND_MAX go to ``_contour_mean`` under their flat indices.
    ``derivatives=True`` (not with ``subsets``) adds dr/d(delta) and
    d2r/d(delta)^2.  No validation: callers check once.
    """
    pos = np.sort(np.arange(params.n_atoms) if positions is None else positions).astype(float)
    axes = [delta, params.gamma_L if gamma_L is None else gamma_L, params.xi if xi is None else xi]
    lead = (2**pos.size,) * subsets + np.broadcast_shapes(*map(np.shape, (*axes, prefix)))
    shape = lead or (1,)
    # every operand gets the batch's ndim: numpy multiplies a size-1 pair of
    # unequal ndims without FMA, and a batch of one would change its bits
    d, gl, x = (np.asarray(v, dtype=float)[(None,) * (len(shape) - np.ndim(v))] for v in axes)
    fold = (d, pos, gl, x)
    folded = _fold(params, *fold, derivatives, prefix, subsets)
    r, d_min, *jet = (np.broadcast_to(v, shape).flatten() for v in folded)
    index = np.flatnonzero(~np.isfinite(r) | (d_min <= 1.0 / COND_MAX))
    if index.size:
        for v, mean in zip((r, *jet), _contour_mean(params, index, *fold, prefix, subsets)):
            v[index] = mean
    return tuple(v.reshape(lead) for v in (r, *jet)) if derivatives else r.reshape(lead)


def solve_steady_state(system: LinearSystem, params: SystemParams) -> SteadyState:
    """Solve the linear system exactly and package the reflection amplitude.

    The library builds systems at a_in = 1; a hand-built ``system`` keeps its
    own drive, a_in = -rhs[0] / sqrt(kappa_wg), which must not be 0.
    """
    require_params(system, LinearSystem, "system")
    require_valid(params)
    solution = _solve(system.matrix, system.rhs)
    a_in = -system.rhs[0] / np.sqrt(params.kappa_wg)
    if a_in == 0:
        raise SolverError("the system is not driven: rhs[0] = 0")
    return _steady_state_from(solution, params, a_in)


def _steady_state_from(solution: np.ndarray, params: SystemParams, a_in) -> SteadyState:
    a = complex(solution[0])
    r = np.sqrt(params.kappa_wg) * a / a_in - 1.0
    return SteadyState(a=a, sigma=solution[1:].copy(), r=complex(r))


def reflectivity(params: SystemParams, drive: DriveParams) -> float:
    """Reflectivity R = |r|^2 for a single drive point, bit for bit the
    value :func:`reflectivity_batch` gives there."""
    r = reflection_amplitude(params, drive)
    return float(np.square(np.abs(r)))


def reflection_amplitude(params: SystemParams, drive: DriveParams) -> complex:
    """Complex reflection amplitude r for a single drive point: a batch of one."""
    require_valid(params)
    return complex(_reflection(params, _drive_delta(drive)))


def reflectivity_batch(params: SystemParams, delta, gamma_L=None, xi=None) -> np.ndarray:
    """R over broadcastable arrays of (delta, gamma_L, xi), delta_c locked.

    Sweep points are solved as one batch with results in grid order, with
    gamma_R = 1 - gamma_L at every point.  Errors from a degenerate point name
    its flat grid index.  R = np.square(np.abs(r)) has the same bits in a
    batch of any size (``**`` on a numpy scalar rounds through ``pow``).
    """
    require_valid(params)
    delta = require_real("delta", delta)
    gamma_L, xi = (None if v is None else require_real(name, v) for name, v in (("gamma_L", gamma_L), ("xi", xi)))
    if gamma_L is not None and not np.all((gamma_L >= 0.0) & (gamma_L <= 1.0)):
        raise ValidationError("gamma_L must lie in [0, 1]")
    try:
        np.broadcast_shapes(*map(np.shape, (delta, gamma_L, xi)))
    except ValueError:
        raise ValidationError("delta, gamma_L and xi must broadcast together") from None
    return np.square(np.abs(_reflection(params, delta, gamma_L=gamma_L, xi=xi)))


def relax_time_domain(params: SystemParams, drive: DriveParams, *, positions=None) -> SteadyState:
    """Steady state by integrating the equations of motion from vacuum.

    Verification oracle independent of the linear-algebra solve path:
    a fixed-step classical 4th-order Runge-Kutta scheme for
    v' = M v - rhs starting from v = 0.  The equilibrium of the flow is
    a fixed point of every Runge-Kutta step, so the iteration converges
    to the exact steady state for any step inside the stability region,
    such as h = 1/(Gershgorin bound).  The march is performed by
    repeated squaring of the one-step affine map, so slowly relaxing
    (narrow-dip) parameter points cost log rather than linear time.

    The unit drive a_in = 1 is marched: the march ends when the state
    change across a doubled horizon drops below ``RELAX_TOL`` (relative
    above norm 1) while decaying; failure to converge within ``RELAX_T_MAX``
    raises SolverError with the residual.  ``positions`` selects atom sites
    as in :func:`build_linear_system`.
    Parameters must pass :func:`require_valid`, except that the oracle
    also takes the closed cavity kappa_wg = 0 (nothing drives it, r = -1).
    """
    require_valid(replace(params, kappa_wg=1.0) if require_params(params).kappa_wg == 0 else params)
    matrix, rhs = _assemble(params, _drive_delta(drive, positions), positions)
    dim = matrix.shape[0]
    bound = float(np.max(np.sum(np.abs(matrix), axis=1)))  # Gershgorin bound
    h = 1.0 / bound if bound > 0 else 1.0

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
    while horizon <= RELAX_T_MAX:
        state_next = propagator @ state + state  # state after 2*horizon
        change = float(np.linalg.norm(state_next - state))
        if change < RELAX_TOL * max(1.0, float(np.linalg.norm(state_next))) and (
            change <= change_prev
        ):
            return _steady_state_from(state_next, params, 1.0)
        propagator = propagator @ propagator
        state = state_next
        change_prev = change
        horizon *= 2.0
    residual = np.linalg.norm(matrix @ state - rhs)
    raise SolverError(
        f"relaxation did not converge within RELAX_T_MAX={RELAX_T_MAX:g} "
        f"(state change {change_prev:.3e}, residual {residual:.3e}) "
        f"for params={params}, drive={drive}"
    )
