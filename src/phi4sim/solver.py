"""Paracontrolled remainder system for (v, w), the coefficient fields F_j,
the G map, exponential-Euler / Picard integration, Y-norms, and the
reconstruction of the full solution against a brute-force reference.

The discrete scheme keeps the Duhamel structure exact: every integral is
advanced by the exponential left-endpoint rule, and the running accumulators

    A(t) = I((v + w - lam*c30) < c2),    B(t) = I(c2)

satisfy the same recursion as v itself, so the commutator
[I, <](u - lam*c30, c2) = A - (u - lam*c30) < B costs no extra quadrature
error relative to the v-equation.
"""

from dataclasses import dataclass, field

import numpy as np

from .besov import besov_norm, combine, default_partition, physical_blocks
from .errors import BlowUpSignal, GridError
from .fourier import (ExponentialQuadrature, FourierField, from_physical,
                      product, to_physical)
from .gaussian import ou_increment


@dataclass
class SolverConfig:
    eps: float
    lam: float
    dt: float
    T: float
    K: int
    kappa: float = 0.05
    delta0: float = None
    picard_iters: int = 40
    mode: str = "sequential"
    n_half: int = 2  # half-degree of V, used by the delta0 default

    def __post_init__(self):
        if self.delta0 is None:
            self.delta0 = self.kappa / (2 * self.n_half)
        if not 0 < self.delta0 < self.kappa / self.n_half:
            raise ValueError("delta0 must lie in (0, kappa/n)")
        if self.dt <= 0 or self.T <= 0:
            raise ValueError("dt and T must be positive")
        if self.mode not in ("sequential", "picard"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class RemainderPair:
    t_grid: np.ndarray
    v_traj: np.ndarray
    w_traj: np.ndarray
    initial: tuple
    info: dict = field(default_factory=dict)


def taylor_remainder(V, x, y):
    """V'(x + y) - sum_{j=0..3} V^(j+1)(x) y^j / j!  (exact polynomial arithmetic)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    out = V.eval(x + y, 1)
    fact = 1.0
    for j in range(4):
        if j > 0:
            fact *= j
        out = out - V.eval(x, j + 1) * y**j / fact
    return out


def coeffs_F(lam, U, i):
    """The four coefficient fields (F0, F1, F2, F3) at time index i, or
    batched over time when i is a slice.  The paraproducts, resonances and
    the commutator are combined from the blocks of c30, c1, c30^2, c30 o c30
    and c30 < c30, each decomposed once."""
    g = U.grid
    P2 = g.pad_size(2)
    c0, c1, c30, c31, c22, c32 = (U.field(t, i) for t in
                                  ("c0", "c1", "c30", "c31", "c22", "c32"))
    F3 = -lam * c0
    F2 = 3.0 * lam**2 * product(c0, c30, 2) - 3.0 * lam * c1
    sq30 = product(c30, c30, 2)
    B30, B1, Bsq = (physical_blocks(f.coeffs, g, None, P2)
                    for f in (c30, c1, sq30))
    Bres, Blt = (physical_blocks(combine(B30, B30, g, P2, mode), g, None, P2)
                 for mode in ("res", "lt"))

    def comb(Bf, Bg, mode):
        return FourierField(g, combine(Bf, Bg, g, P2, mode))

    F1 = (-3.0 * lam**3) * product(c0, sq30, 3) \
        + 6.0 * lam**2 * (comb(B30, B1, "lt") + comb(B1, B30, "lt") + c31) \
        + 9.0 * lam**2 * c22
    # Com(c30; c30; c1) = (c30 < c30) o c1 - c30 (c30 o c1)
    com = comb(Blt, B1, "res") - product(c30, comb(B30, B1, "res"), 2)
    F0 = lam**4 * product(c0, product(sq30, c30, 3), 4) \
        - 3.0 * lam**3 * (comb(Bsq, B1, "lt") + comb(B1, Bsq, "lt")
                          + comb(Bres, B1, "res")
                          + 2.0 * product(c31, c30, 2)
                          + 2.0 * com) \
        + 3.0 * lam**2 * c32 \
        - 9.0 * lam**3 * product(c22, c30, 2)
    return F0, F1, F2, F3


def coeffs_F_traj(lam, U, chunk=1):
    """All four coefficient-field trajectories as arrays (F0, F1, F2, F3) of
    shape (T, n, n, n): coeffs_F on time chunks of `chunk` slices.

    Per-slice by default: the pruned transforms are cheap enough that a
    batch of slices only falls out of the cache (K=8, 51 slices, one FFT
    thread: 1.21 s slice by slice, 1.53 s in chunks of 32).  The result is
    bit-identical for every `chunk`."""
    T = U.traj("c0").shape[0]
    out = [np.empty_like(U.traj("c0")) for _ in range(4)]
    for lo in range(0, T, chunk):
        s = slice(lo, min(lo + chunk, T))
        for dst, F in zip(out, coeffs_F(lam, U, s)):
            dst[s] = F.coeffs
    return tuple(out)


def g_map(lam, U, u, i, eps, V, h, A, B, F, blocks):
    """The forcing G(lam, Upsilon, u) at time index i.

    `u` is the current v + w (a FourierField); `h` is e^{t(L-1)} c20(0);
    A and B are the running Duhamel accumulators described in the module
    docstring; F holds the coefficient-field trajectories of coeffs_F_traj;
    `blocks` carries the physical blocks (Bf, Bc2) of u - lam*c30 and of the
    quadratic noise, so the caller's decompositions are reused.  F and
    blocks are unused (None) when lam = 0.
    """
    g = U.grid
    part = default_partition(g)
    P2 = g.pad_size(2)
    f = u - lam * U.field("c30", i)
    if lam != 0.0:
        Bfb, Bc2b = blocks
        F0c, F1c, F2c, F3c = (F[j][i] for j in range(4))
        # polynomial part evaluated on one shared alias-free grid
        P = g.pad_size(4)
        ux = to_physical(u.coeffs, g, P)
        poly = to_physical(F0c, g, P) \
            + to_physical(F1c, g, P) * ux \
            + to_physical(F2c, g, P) * ux**2 \
            + to_physical(F3c, g, P) * ux**3
        out = from_physical(poly, g, P)
        out = out - 3.0 * lam * combine(Bc2b, Bfb, g, P2, "lt")  # f > c2
    else:
        # every coefficient field carries a factor of the coupling
        out = np.zeros_like(u.coeffs)
    if eps > 0 and V is not None and V.n > 2:
        # Taylor remainder of V' around sqrt(eps) * (free field); exactly zero
        # for quartic V
        Pr = g.pad_size(2 * V.n - 1)
        psi = to_physical(U.traj("one")[i], g, Pr) * np.sqrt(eps)
        y = to_physical(f.coeffs, g, Pr) * np.sqrt(eps)
        out = out - from_physical(taylor_remainder(V, psi, y), g, Pr) * eps**-1.5
    if lam != 0.0:
        BBb = physical_blocks(B, g, part, P2)
        flB = combine(Bfb, BBb, g, P2, "lt")  # f < B
        # Com(f; B; c2) = (f < B) o c2 - f (B o c2)
        Bres = FourierField(g, combine(BBb, Bc2b, g, P2, "res"))  # B o c2
        com = combine(physical_blocks(flB, g, part, P2), Bc2b, g, P2, "res") \
            - product(f, Bres, 2).coeffs
        comm_I = A - flB
        res_ci = combine(Bc2b, physical_blocks(comm_I, g, part, P2), g, P2,
                         "res")
        res_h = combine(Bc2b, physical_blocks(h, g, part, P2), g, P2, "res")
        out = out + 9.0 * lam**2 * (
            com + res_ci - product(FourierField(g, res_h), f, 2).coeffs)
    return FourierField(g, out)


def _check_grid_match(config, U):
    t_grid = U.t_grid
    dt = float(t_grid[1] - t_grid[0])
    if abs(dt - config.dt) > 1e-12:
        raise GridError("enhanced noise dt does not match config")
    if t_grid[-1] < config.T - 1e-12:
        raise GridError("enhanced noise does not cover [0, T]")
    nsteps = int(round(config.T / config.dt))
    return nsteps


def _march(config, U, v0, w0, V, integrand_source=None, F_pre=None):
    """One exponential-Euler sweep.  With integrand_source=None the integrands
    use the running (sequential) state; otherwise they are evaluated on the
    supplied previous-iterate trajectories (one Picard sweep)."""
    g = U.grid
    lam = config.lam
    eps = config.eps
    nsteps = _check_grid_match(config, U)
    quad = ExponentialQuadrature(g, U.Q, config.dt)
    shape = (g.n,) * 3
    v = np.array(v0, dtype=np.complex128)
    w = np.array(w0, dtype=np.complex128)
    A = np.zeros(shape, dtype=np.complex128)
    B = np.zeros(shape, dtype=np.complex128)
    h = np.array(U.c20_0, dtype=np.complex128)
    ev0 = v.copy()
    v_traj = np.empty((nsteps + 1,) + shape, dtype=np.complex128)
    w_traj = np.empty_like(v_traj)
    v_traj[0], w_traj[0] = v, w
    if F_pre is not None:
        F = F_pre
    else:
        F = coeffs_F_traj(lam, U) if lam != 0.0 else None
    part = default_partition(g)
    P2 = g.pad_size(2)
    for i in range(nsteps):
        if integrand_source is None:
            vi, wi = v, w
        else:
            vi, wi = integrand_source[0][i], integrand_source[1][i]
        c2 = U.field("c2", i)
        c30c = U.traj("c30")[i]
        f = FourierField(g, vi + wi - lam * c30c)
        if lam != 0.0:
            Bfb = physical_blocks(f.coeffs, g, part, P2)
            Bc2b = physical_blocks(c2.coeffs, g, part, P2)
            para = combine(Bfb, Bc2b, g, P2, "lt")
            res = combine(Bc2b, physical_blocks(ev0 + wi, g, part, P2), g,
                          P2, "res")
            blocks = (Bfb, Bc2b)
        else:
            para = res = np.zeros(shape, dtype=np.complex128)
            blocks = None
        G = g_map(lam, U, FourierField(g, vi + wi), i, eps, V, h, A, B, F,
                  blocks).coeffs
        v = quad.advance(v, -3.0 * lam * para)
        w = quad.advance(w, -3.0 * lam * res + G)
        A = quad.advance(A, para)
        B = quad.advance(B, c2.coeffs)
        h = quad.decay * h
        ev0 = quad.decay * ev0
        if not (np.all(np.isfinite(v.view(np.float64)))
                and np.all(np.isfinite(w.view(np.float64)))):
            raise BlowUpSignal(U.t_grid[i + 1],
                               last_state=(v_traj[: i + 1], w_traj[: i + 1]))
        v_traj[i + 1], w_traj[i + 1] = v, w
    return v_traj, w_traj


def solve(config, U, v0, w0, V=None):
    """Integrate the remainder system on [0, T]; returns the trajectory pair."""
    g = U.grid
    v0 = np.asarray(v0, dtype=np.complex128)
    w0 = np.asarray(w0, dtype=np.complex128)
    if v0.shape != (g.n,) * 3 or w0.shape != (g.n,) * 3:
        raise GridError("initial data shape mismatch")
    for c in (v0, w0):
        if np.max(np.abs(g.reflect(c) - np.conj(c))) > 1e-12 * np.max(np.abs(c)):
            raise GridError("initial data is not the spectrum of a real field")
    if config.mode == "sequential":
        v_traj, w_traj = _march(config, U, v0, w0, V)
        info = {"mode": "sequential"}
    else:
        nsteps = _check_grid_match(config, U)
        shape = (nsteps + 1,) + (g.n,) * 3
        quad = ExponentialQuadrature(g, U.Q, config.dt)
        v_prev = np.empty(shape, dtype=np.complex128)
        w_prev = np.empty_like(v_prev)
        v_prev[0], w_prev[0] = v0, w0
        for i in range(nsteps):  # zeroth iterate: pure linear evolution
            v_prev[i + 1] = quad.decay * v_prev[i]
            w_prev[i + 1] = quad.decay * w_prev[i]
        dists = []
        info = {"mode": "picard", "converged": False, "non_contraction": False}
        F = coeffs_F_traj(config.lam, U) if config.lam != 0.0 else None
        for sweep in range(config.picard_iters):
            v_new, w_new = _march(config, U, v0, w0, V,
                                  integrand_source=(v_prev, w_prev), F_pre=F)
            dist = max(float(np.max(np.abs(v_new - v_prev))),
                       float(np.max(np.abs(w_new - w_prev))))
            dists.append(dist)
            v_prev, w_prev = v_new, w_new
            if dist < 1e-8:
                info["converged"] = True
                break
            if len(dists) >= 3 and dists[-1] > dists[-2] > dists[-3]:
                info["non_contraction"] = True
                break
        info["sweeps"] = len(dists)
        info["final_distance"] = dists[-1] if dists else 0.0
        v_traj, w_traj = v_prev, w_prev
    t_grid = U.t_grid[: v_traj.shape[0]].copy()
    return RemainderPair(t_grid=t_grid, v_traj=v_traj, w_traj=w_traj,
                         initial=(v0, w0), info=info)


# ---------------------------------------------------------------------------
# norms


def _component_y_norm(grid, traj, t_grid, eps, T, kappa, delta0, high_alpha,
                      holder_stride):
    sel = np.where(t_grid <= T + 1e-12)[0]
    fields = [FourierField(grid, traj[i]) for i in sel]
    kap = np.array([besov_norm(f, kappa) for f in fields])
    high = np.array([besov_norm(f, high_alpha) for f in fields])
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
    idxs = sel if holder_stride is None else sel[::holder_stride]
    hold = 0.0
    for a in range(len(idxs)):
        for b in range(a + 1, len(idxs)):
            i, j = idxs[a], idxs[b]
            s, tt = t_grid[i], t_grid[j]
            if s <= 0:
                continue
            diff = besov_norm(FourierField(grid, traj[j] - traj[i]), kappa)
            hold = max(hold, s**0.25 * diff / (tt - s) ** 0.125)
    return total + hold


def y_norm(P, eps, T, kappa=0.05, delta0=None, n_half=2, grid=None,
           holder_stride=None):
    """||(v, w)|| in the epsilon-weighted solution space over [0, T]."""
    if delta0 is None:
        delta0 = kappa / (2 * n_half)
    if grid is None:
        raise GridError("y_norm needs the lattice (grid=...)")
    nv = _component_y_norm(grid, P.v_traj, P.t_grid, eps, T, kappa, delta0,
                           1.0 - 2.0 * kappa, holder_stride)
    nw = _component_y_norm(grid, P.w_traj, P.t_grid, eps, T, kappa, delta0,
                           1.0 + 2.0 * kappa, holder_stride)
    return nv + nw


def y_distance(P1, P2, eps, T, grid, **kw):
    """Y-norm of the difference of two trajectory pairs on a shared grid."""
    diff = RemainderPair(t_grid=P1.t_grid,
                         v_traj=P1.v_traj - P2.v_traj,
                         w_traj=P1.w_traj - P2.w_traj,
                         initial=P1.initial)
    return y_norm(diff, eps, T, grid=grid, **kw)


# ---------------------------------------------------------------------------
# reconstruction and brute-force reference


def reconstruct_phi(U, P, lam):
    """Phi = free field - lam * c30 + v + w on the common time grid."""
    n = P.v_traj.shape[0]
    return U.traj("one")[:n] - lam * U.traj("c30")[:n] + P.v_traj + P.w_traj


def brute_force_reference(seed, config, V, Q, renorm_set, U, phi0=None,
                          include_counterterm=True, scheme="exponential_euler"):
    """Direct integration of the full renormalized equation

        dPhi = (L-1) Phi dt - eps^{-3/2} P_K V'(sqrt(eps) Phi) dt
               + C_eps Phi dt + dxi

    on the identical noise path as the enhanced-noise build (the OU increments
    are regenerated from the same counters).  scheme is "exponential_euler"
    (the same quadrature as the remainder solver) or "etdrk2" (exponential
    trapezoidal rule, second-order in the drift, for convergence studies).
    """
    g = U.grid
    prov = U.provenance
    if prov.get("master") != seed.master:
        raise GridError("seed does not match the enhanced-noise provenance")
    nsteps = _check_grid_match(config, U)
    eps = config.eps
    quad = ExponentialQuadrature(g, Q, config.dt)
    C = renorm_set.C_total if include_counterterm else 0.0
    if phi0 is None:
        phi0 = U.traj("one")[0] - config.lam * U.traj("c30")[0]
    phi = np.array(phi0, dtype=np.complex128)
    traj = np.empty((nsteps + 1,) + (g.n,) * 3, dtype=np.complex128)
    traj[0] = phi
    offset = prov["step_offset"]
    band = prov.get("band")
    Pr = g.pad_size(2 * V.n - 1)
    if scheme not in ("exponential_euler", "etdrk2"):
        raise ValueError(f"unknown scheme {scheme!r}")
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
        inc = ou_increment(seed, g, Q, prov["sample"], offset + i, config.dt,
                           band=band)
        pred = quad.advance(phi, drift)
        if scheme == "etdrk2":
            # trapezoidal corrector along the deterministic flow; the noise
            # convolution is exact and added afterwards so the correction
            # stays smooth in dt
            phi = pred + phi2 * (drift_of(pred) - drift) + inc
        else:
            phi = pred + inc
        if not np.all(np.isfinite(phi.view(np.float64))):
            raise BlowUpSignal(U.t_grid[i + 1], last_state=traj[: i + 1])
        traj[i + 1] = phi
    return traj
