"""Paracontrolled remainder system for (v, w), the coefficient fields F_j,
its exponential-Euler march, Y-norms, and the reconstruction of the full
solution against a brute-force reference.

The paper's step is written with the renormalised resonances
c31 = c30 o c1 - k31, c22 = c20 o c2 - k22 and c32 = c30 o c2 - k32 X, which
it needs as eps -> 0.  With u = v + w, f = u - lam*c30 and the accumulator
A = I(f < c2) it integrates

    v = e^{t(L-1)} v(0) + I(-3 lam f < c2),
    w = e^{t(L-1)} w(0) + I(-3 lam c2 o (e^{t(L-1)} v(0) + w) + G),
    G = sum_j F_j u^j - 3 lam c2 < f + 9 lam^2 (c2 o A - f (c2 o c20)),

where c2 o A - f (c2 o c20) is the paper's split Com(f; I(c2); c2)
+ c2 o (A - f < I(c2)) - f (c2 o e^{t(L-1)} c20(0)) summed, exact because
the resonance sums the symmetric set of block pairs |i - j| <= 1.  At a
fixed cutoff five identities hold in exact arithmetic on the alias-free
grids:
    (a) Bony: f < g + g < f + f o g = P(fg), and blocks are linear, so
        c30^2 = 2 (c30 < c30) + c30 o c30;
    (b) c31 = c30 o c1 - k31;
    (c) c20 = I(c2) + e^{t(L-1)} c20(0) is the noise build's integrated Wick
        square, so c2 o c20 = c22 + k22;
    (d) A and e^{t(L-1)} v(0) follow v's own recursion with v's own
        integrand, and the exponential rule is linear, so
        v = e^{t(L-1)} v(0) - 3 lam A and the two resonances of w combine:
        -3 lam c2 o (e^{t(L-1)} v(0) + w) + 9 lam^2 c2 o A = -3 lam c2 o u;
    (e) c2 o u = c2 o f + lam c2 o c30, with c2 o c30 = c32 + k32 X.
By (a) and (b) the paraproducts, the resonances and the commutator
Com(c30; c30; c1) in F are projected products P(.); by (c) every c22 term of
F cancels against G's -9 lam^2 f (c2 o c20).  What is left of k31 and
k22 is one mass term, -lam^2 (6 k31 + 9 k22) f = -3 lam^2 k32 f, where k32
is 3 C2 + 2 C3, or 6 c2_std in the limit.  By (d), (e) and (a) the resonance
of w is -3 lam P(c2 f) + 3 lam (c2 < f + f < c2) - 3 lam^2 (c32 + k32 X):
its c2 < f cancels G's -3 lam c2 < f, and -3 lam^2 c32 cancels the
+3 lam^2 c32 of the paper's F0, so c32 is never formed.  With
sq = P(c30^2),

    F3 = -lam c0
    F2 = 3 lam^2 P(c0 c30) - 3 lam c1
    F1 = -3 lam^3 P(c0 sq) + 6 lam^2 P(c30 c1)
    F0 = lam^4 P(c0 P(sq c30)) - 3 lam^3 P(sq c1)

and the march integrates

    v = e^{t(L-1)} v(0) + I(-3 lam f < c2),
    w = e^{t(L-1)} w(0) + I(sum_j F_j u^j - 3 lam P(c2 f) + 3 lam f < c2
                             - 3 lam^2 k32 (X + f)),

plus, for V of degree > 4, the Taylor remainder of V' in w's integrand
(in G of the paper's step too).  A step forms one paraproduct, f < c2
(besov.para_lt); P(c2 f) joins the polynomial pass, of degree 4, or 3 when c0
is a number (every quartic V, and the limit's c0 = 1) and so F3 is one too.
The march reads each step's noise slice (`EnhancedNoise.slices`, of a
collected or a streamed build) and forms its F as it reads it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .besov import besov_norm, besov_profile, para_lt
from .errors import BlowUpSignal, GridError
from .fourier import (ExponentialQuadrature, _half, _mirror, from_physical,
                      product, to_physical)
from .gaussian import ou_increment, ou_transition


@dataclass
class SolverConfig:
    eps: float
    lam: float
    dt: float
    T: float
    K: int

    def __post_init__(self):
        if not (math.isfinite(self.dt) and math.isfinite(self.T)
                and self.dt > 0 and self.T > 0):
            raise ValueError("dt and T must be finite and positive")
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError(f"eps must lie in [0, 1], not {self.eps}")


@dataclass
class RemainderPair:
    t_grid: np.ndarray
    v_traj: np.ndarray
    w_traj: np.ndarray


def taylor_remainder(V, x, y):
    """V'(x + y) - sum_{j=0..3} V^(j+1)(x) y^j / j!  (exact polynomial arithmetic)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    out = V.eval(x + y, 1)
    fact, yj = 1.0, 1.0
    for j in range(4):
        if j > 0:
            fact *= j
            yj = yj * y
        out = out - V.eval(x, j + 1) * yj / fact
    return out


def coeffs_F(lam, U, s):
    """The four coefficient fields (F0, F1, F2, F3) as half spectra, from s,
    one slice of U (`U.slice` or `U.slices`): projected products of c0, c1
    and c30 (the module docstring derives them from the paper's form), with a
    number c0 as a factor, not in a product."""
    g = U.grid
    c0, c1, c30 = s["c0"], s["c1"], s["c30"]
    a = U.polys[0][0] if len(U.polys[0]) == 1 else None  # c0, if it is a number

    def c0_times(f, degree):
        return product(c0, f, g, degree) if a is None else a * f

    sq30 = product(c30, c30, g, 2)
    F3 = -lam * c0
    F2 = 3.0 * lam**2 * c0_times(c30, 2) - 3.0 * lam * c1
    F1 = (-3.0 * lam**3) * c0_times(sq30, 3) \
        + 6.0 * lam**2 * product(c30, c1, g, 2)
    F0 = lam**4 * c0_times(product(sq30, c30, g, 3), 4) \
        - 3.0 * lam**3 * product(sq30, c1, g, 2)
    return F0, F1, F2, F3


def _check_grid_match(config, U):
    if config.K != U.grid.K or abs(config.eps - U.eps) > 1e-12:
        raise GridError(f"config (K={config.K}, eps={config.eps}) does not match "
                        f"the enhanced noise (K={U.grid.K}, eps={U.eps})")
    if abs(float(U.t_grid[1] - U.t_grid[0]) - config.dt) > 1e-12:
        raise GridError("enhanced noise dt does not match config")
    if U.t_grid[-1] < config.T - 1e-12:
        raise GridError("enhanced noise does not cover [0, T]")
    return int(round(config.T / config.dt))


def _march(config, U, v0, w0, V, trajectory=False):
    """The exponential-Euler march on half spectra from the full cubes
    (v0, w0), forming each step's coefficient fields F from its slice of U
    as it reads it; returns the final state (v, w), half spectra.  With
    trajectory=True it returns the full-cube trajectories (v_traj, w_traj)
    at steps 0 .. nsteps instead, each step's state mirrored in as it is made."""
    g = U.grid
    lam = config.lam
    eps = config.eps
    nsteps = _check_grid_match(config, U)
    quad = ExponentialQuadrature(g, U.Q, config.dt)
    a = U.polys[0][0] if len(U.polys[0]) == 1 else None  # c0 if a number: F3 = -lam a
    P = g.pad_size(4 if a is None else 3)
    v, w = (_half(c, g, "initial data") for c in (v0, w0))
    out = _full_cubes(nsteps, g) if trajectory else None
    if out is not None:
        _mirror(v, g, out=out[0][0])
        _mirror(w, g, out=out[1][0])
    slices = U.slices()
    for i in range(nsteps):
        s = next(slices)  # not zip's: its reused result tuple keeps the slice
        F = coeffs_F(lam, U, s)
        one, c30, c2 = s["one"], s["c30"], s["c2"]
        del s  # c0 and c1 are not read once F is formed
        u = v + w
        f = u - lam * c30
        para = para_lt(f, c2, g)
        # sum_j F_j u^j - 3 lam c2 f on one shared alias-free grid
        ux = to_physical(u, g, P)
        poly, uj = to_physical(F[0], g, P), 1.0
        for j in (1, 2, 3):
            uj = uj * ux
            poly += (to_physical(F[j], g, P) if j < 3 or a is None else -lam * a) * uj
        poly -= 3.0 * lam * to_physical(c2, g, P) * to_physical(f, g, P)
        G = from_physical(poly, g, P) + 3.0 * lam * para \
            - 3.0 * lam**2 * U.k32 * (one + f)
        if eps > 0 and V is not None and V.n > 2:
            # Taylor remainder of V' around sqrt(eps) * (free field); exactly
            # zero for quartic V
            Pr = g.pad_size(2 * V.n - 1)
            psi = to_physical(one, g, Pr) * np.sqrt(eps)
            y = to_physical(f, g, Pr) * np.sqrt(eps)
            G = G - from_physical(taylor_remainder(V, psi, y), g, Pr) * eps**-1.5
        v_next = quad.advance(v, -3.0 * lam * para)
        w_next = quad.advance(w, G)
        if not (np.all(np.isfinite(v_next.view(np.float64)))
                and np.all(np.isfinite(w_next.view(np.float64)))):
            raise BlowUpSignal(U.t_grid[i + 1], step=i + 1, last_state=(
                _mirror(v, g), _mirror(w, g)))
        v, w = v_next, w_next
        if out is not None:
            _mirror(v, g, out=out[0][i + 1])
            _mirror(w, g, out=out[1][i + 1])
    return (v, w) if out is None else out


def _full_cubes(nsteps, grid):
    """Uninitialised (v, w) trajectories of full cubes at steps 0 .. nsteps."""
    shape = (nsteps + 1,) + (grid.n,) * 3
    return np.empty(shape, dtype=np.complex128), np.empty(shape, dtype=np.complex128)


def solve(config, U, v0, w0, V=None):
    """Integrate the remainder system on [0, T] on a collected or a streamed
    build U; full cubes in and out.  The trajectories are written as full
    cubes step by step, so no half trajectory is held beside them."""
    v_traj, w_traj = _march(config, U, v0, w0, V, trajectory=True)
    return RemainderPair(t_grid=U.t_grid[: len(v_traj)].copy(), v_traj=v_traj,
                         w_traj=w_traj)


def solve_final(config, U, v0, w0, V=None):
    """The final state (v, w) of `solve`, full cubes: the march keeps only
    the running (v, w), so on a streamed build (`diagrams.stream_upsilon`)
    no trajectory is held."""
    return tuple(_mirror(c, U.grid) for c in _march(config, U, v0, w0, V))


# ---------------------------------------------------------------------------
# norms


def _component_y_norm(grid, traj, t_grid, eps, T, kappa, delta0, high_alpha):
    traj = traj[..., : grid.K + 1]  # full cubes -> stored halves
    sel = np.where(t_grid <= T + 1e-12)[0]
    profiles = [besov_profile(traj[i], grid) for i in sel]
    kap = np.array([p.norm(kappa) for p in profiles])
    high = np.array([p.norm(high_alpha) for p in profiles])
    t = t_grid[sel]
    total = 0.0
    if eps > 0:
        early = t <= eps**2 + 1e-15
        if np.any(early):
            wgt = np.where(t[early] > 0, (np.sqrt(t[early]) / eps) ** delta0, 0.0)
            # the t=0 point enters with weight lim_{t->0}(sqrt(t)/eps)^d0 = 0
            total += float(np.max(wgt * kap[early]))
        late = ~early
        if np.any(late):
            total += float(np.max(kap[late]))
    else:
        total += float(np.max(kap))
    total += float(np.max(t ** (2.0 / 3.0) * high))
    # the Hoelder pairs run over every (n//8)-th of the n steps
    idxs = sel[::max(1, (len(t_grid) - 1) // 8)]
    hold = 0.0
    for a in range(len(idxs)):
        for b in range(a + 1, len(idxs)):
            i, j = idxs[a], idxs[b]
            s, tt = t_grid[i], t_grid[j]
            if s <= 0:
                continue
            diff = besov_norm(traj[j] - traj[i], grid, kappa)
            hold = max(hold, s**0.25 * diff / (tt - s) ** 0.125)
    return total + hold


def y_norm(P, eps, T, grid, kappa=0.05, n_half=2):
    """||(v, w)|| in the epsilon-weighted solution space over [0, T], with the
    early-time weight exponent delta0 = kappa / (2 n) for V of degree 2n."""
    delta0 = kappa / (2 * n_half)
    nv = _component_y_norm(grid, P.v_traj, P.t_grid, eps, T, kappa, delta0,
                           1.0 - 2.0 * kappa)
    nw = _component_y_norm(grid, P.w_traj, P.t_grid, eps, T, kappa, delta0,
                           1.0 + 2.0 * kappa)
    return nv + nw


def y_distance(P1, P2, eps, T, grid, **kw):
    """Y-norm of the difference of two trajectory pairs on a shared grid."""
    diff = RemainderPair(t_grid=P1.t_grid,
                         v_traj=P1.v_traj - P2.v_traj,
                         w_traj=P1.w_traj - P2.w_traj)
    return y_norm(diff, eps, T, grid, **kw)


# ---------------------------------------------------------------------------
# reconstruction and brute-force reference


def reconstruct_phi(U, P, lam):
    """Phi = free field - lam * c30 + v + w on the common time grid (full
    cubes), written into the result slice by slice."""
    phi = np.empty_like(P.v_traj)
    for out, one, c30 in zip(phi, U.traj("one"), U.traj("c30")):
        _mirror(one - lam * c30, U.grid, out=out)
    phi += P.v_traj
    phi += P.w_traj
    return phi


def brute_force_reference(seed, config, V, Q, renorm_set, U, phi0=None,
                          scheme="exponential_euler"):
    """Direct integration of the full renormalized equation

        dPhi = (L-1) Phi dt - eps^{-3/2} P_K V'(sqrt(eps) Phi) dt
               + C_eps Phi dt + dxi

    on the identical noise path as the enhanced-noise build (the OU increments
    are regenerated from the same counters), full cubes in and out.  scheme is
    "exponential_euler" (the remainder solver's quadrature) or "etdrk2"
    (exponential trapezoidal rule, second order in the drift, for convergence
    studies).
    """
    if scheme not in ("exponential_euler", "etdrk2"):
        raise ValueError(f"unknown scheme {scheme!r}")
    g = U.grid
    prov = U.provenance
    if prov.get("master") != seed.master:
        raise GridError("seed does not match the enhanced-noise provenance")
    nsteps = _check_grid_match(config, U)
    eps = config.eps
    if abs(Q.eps - eps) > 1e-12 or abs(renorm_set.eps - eps) > 1e-12:
        raise GridError(f"symbol / constants eps {Q.eps} / {renorm_set.eps} do not match "
                        f"the enhanced noise (eps={U.eps})")
    quad = ExponentialQuadrature(g, Q, config.dt)
    C = renorm_set.C_total
    phi = U.traj("one")[0] - config.lam * U.traj("c30")[0] if phi0 is None \
        else _half(phi0, g, "phi0")
    traj = np.empty((nsteps + 1,) + (g.n,) * 3, dtype=np.complex128)
    _mirror(phi, g, out=traj[0])
    offset = prov["step_offset"]
    ou_step = ou_transition(g, Q, config.dt)
    Pr = g.pad_size(2 * V.n - 1)
    bsq = Q.bracket_sq_grid(g)
    # second phi-function for the trapezoidal corrector:
    # (e^{-c dt} - 1 + c dt) / (c^2 dt)
    cdt = bsq * config.dt
    phi2 = (quad.decay - 1.0 + cdt) / (bsq * cdt)

    def drift_of(state):
        phys = to_physical(state, g, Pr)
        return -from_physical(V.eval(np.sqrt(eps) * phys, 1), g, Pr) \
            * eps**-1.5 + C * state

    for i in range(nsteps):
        drift = drift_of(phi)
        inc = ou_increment(seed, g, prov["sample"], offset + i, ou_step)
        pred = quad.advance(phi, drift)
        if scheme == "etdrk2":
            # trapezoidal corrector along the deterministic flow; the noise
            # convolution is exact and added afterwards so the correction
            # stays smooth in dt
            phi = pred + phi2 * (drift_of(pred) - drift) + inc
        else:
            phi = pred + inc
        if not np.all(np.isfinite(phi.view(np.float64))):
            raise BlowUpSignal(U.t_grid[i + 1], step=i + 1,
                               last_state=traj[i].copy())
        _mirror(phi, g, out=traj[i + 1])
    return traj
