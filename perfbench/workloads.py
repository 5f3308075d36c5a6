"""The benchmark's named workloads.

Each workload has three parts:

* ``configs(seed, smoke)`` builds the experiment config documents from the
  benchmark seed.  Seed 0 (``DEFAULT_SEED``) uses the noise seeds and eps
  values of the acceptance tests and is the seed of the pinned outputs; any
  other seed changes the noise seed, and for ``constants`` moves each eps
  inside the interval that keeps its cutoff K, so every seed does the same
  amount of work.
* ``body(cfgs, paths, out_dir)`` is the timed part.  It runs in a fresh
  worker process after set-up and calls the package only through module
  attributes, so the tracer's rebound wrappers see every call.
* ``summarize(state)`` (untimed) turns the body's result into plain JSON
  outputs, and ``check(outputs, seed, smoke)`` returns the failed checks.

This module imports no numpy and no phi4sim at import time: the parent
process only needs the config builders and the checks.
"""

import contextlib
import io
import math
import random

DEFAULT_SEED = 0
PIN_RTOL = 1e-12  # refactors must agree to 1e-12 relative (ROADMAP aim 2)

QUARTIC_V = [0.0, 0.25]
SEXTIC_V = [0.0, 0.0, 1.0 / 6.0]  # Potential.sextic(1.0)


def _doc(name, seed, eps, k_rule, solver=None, symbol=None, potential=None,
         samples=0):
    return {"name": f"perfbench-{name}",
            "symbol": symbol or {"family": "quartic", "nu": 1.0},
            "potential": list(potential or QUARTIC_V),
            "eps": list(eps), "k_rule": k_rule, "seed": int(seed),
            "samples": int(samples), "solver": dict(solver or {}),
            "out_dir": "out"}


def _noise_seed(workload, seed, default):
    if seed == DEFAULT_SEED:
        return default
    return random.Random(f"{workload}:{seed}").randrange(1, 2**31)


def _eps_for_cutoff(rng, K, factor=4.0):
    """An eps with ceil(factor / eps) == K, away from the interval ends."""
    eps = round(factor / rng.uniform(K - 0.8, K - 0.2), 6)
    assert math.ceil(factor / eps) == K, (eps, K)
    return eps


def _call_cli(argv):
    """Run ``phi4sim.cli.main`` in-process; returns its exit code."""
    from phi4sim import cli

    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return int(cli.main(argv) or 0)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def read_csv(path):
    """Data rows (lists of strings) of a CSV, without its header and comments."""
    rows, header = [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                continue
            if header is None:
                header = line
            else:
                rows.append(line.split(","))
    return rows


def pinned_mismatches(outputs, pinned, path="outputs"):
    """Places where ``outputs`` differs from ``pinned`` beyond PIN_RTOL.

    Output keys that ``pinned`` lacks are not compared."""
    if isinstance(pinned, dict):
        if not isinstance(outputs, dict) or not set(pinned) <= set(outputs):
            return [f"{path}: keys missing from the outputs"]
        return [m for k in sorted(pinned)
                for m in pinned_mismatches(outputs[k], pinned[k], f"{path}.{k}")]
    if isinstance(pinned, list):
        if not isinstance(outputs, list) or len(outputs) != len(pinned):
            return [f"{path}: length differs from the pinned values"]
        return [m for i, (a, b) in enumerate(zip(outputs, pinned))
                for m in pinned_mismatches(a, b, f"{path}[{i}]")]
    if isinstance(pinned, float):
        ok = isinstance(outputs, (int, float)) and \
            abs(outputs - pinned) <= PIN_RTOL * max(abs(outputs), abs(pinned))
    else:
        ok = outputs == pinned
    return [] if ok else [f"{path}: {outputs!r} != pinned {pinned!r}"]


# ---------------------------------------------------------------------------
# reconstruct: the ROADMAP reference problem through the API


class Reconstruct:
    name = "reconstruct"
    why = ("API solve of the K=8 reference problem plus the brute-force oracle; "
           "burn-in, coeffs_F_traj and the march dominate, renorm is under 1%")

    @staticmethod
    def configs(seed, smoke=False):
        T = 0.001 if smoke else 0.005
        return {"main": _doc("reconstruct", _noise_seed("reconstruct", seed, 17),
                             [0.2], {"kind": "fixed", "K": 4 if smoke else 8},
                             solver={"dt": 1e-4, "T": T})}

    @staticmethod
    def body(cfgs, paths, out_dir):
        import numpy as np
        from phi4sim import diagrams, fourier, gaussian, renorm, solver

        cfg = cfgs["main"]
        eps = float(cfg.eps[0])
        K = cfg.cutoff_for(eps)
        dt, T = float(cfg.solver["dt"]), float(cfg.solver["T"])
        Q = cfg.make_symbol(eps)
        V = cfg.make_potential()
        rs = renorm.build_renorm(Q, V, K=K)
        g = fourier.FrequencyLattice(K)
        t_grid = np.arange(int(round(T / dt)) + 1) * dt
        U = diagrams.build_upsilon(gaussian.NoiseSeed(cfg.seed), g, Q, V, eps,
                                   t_grid, rs)
        scfg = solver.SolverConfig(eps=eps, lam=rs.lam, dt=dt, T=T, K=K)
        z = np.zeros((g.n,) * 3, dtype=np.complex128)
        pair = solver.solve(scfg, U, z, z, V=V)
        phi = solver.reconstruct_phi(U, pair, scfg.lam)
        ref = solver.brute_force_reference(gaussian.NoiseSeed(cfg.seed), scfg,
                                           V, Q, rs, U)
        return dict(rs=rs, pair=pair, phi=phi, ref=ref)

    @staticmethod
    def summarize(state, paths, out_dir):
        import numpy as np

        def l2(a):
            return float(np.sqrt(np.sum(np.abs(a) ** 2)))

        phi, ref, pair = state["phi"], state["ref"], state["pair"]
        return {"gap": l2(phi - ref) / l2(ref), "phi_l2": l2(phi),
                "ref_l2": l2(ref), "v_l2": l2(pair.v_traj),
                "w_l2": l2(pair.w_traj), "lam": float(state["rs"].lam),
                "C_total": float(state["rs"].C_total)}

    @staticmethod
    def check(out, seed, smoke):
        fails = []
        if not out["gap"] < 1e-8:  # the acceptance test's rounding-floor bound
            fails.append(f"reconstruction gap {out['gap']:.3g} >= 1e-8")
        if not all(math.isfinite(v) and v > 0 for k, v in out.items() if k != "gap"):
            fails.append("non-finite or non-positive norms")
        return fails


# ---------------------------------------------------------------------------
# CLI workloads


class _CliWorkload:
    command = None

    @classmethod
    def body(cls, cfgs, paths, out_dir):
        codes = {}
        for key in sorted(paths):
            codes[key] = _call_cli([cls.command, "--config", paths[key], "--out",
                                    f"{out_dir}/{key}", "--threads", "1"])
        return codes

    @classmethod
    def summarize(cls, codes, paths, out_dir):
        out = {}
        for key, code in codes.items():
            entry = {"exit": code}
            if code == 0:
                entry.update(cls.parse(read_csv(f"{out_dir}/{key}/{cls.command}.csv")))
            out[key] = entry
        return out

    @staticmethod
    def _exit_fails(out):
        return [f"{key}: exit code {e['exit']}" for key, e in out.items()
                if e["exit"] != 0]


class Constants(_CliWorkload):
    name = "constants"
    why = ("CLI constants on a quartic sweep crossing the K>24 padding switch "
           "and one sextic point; renorm pair integrals do nearly all the work")
    command = "constants"
    QUARTIC_EPS = (0.2, 0.141, 0.1)  # K = 20, 29, 40
    SEXTIC_EPS = 0.4  # K = 10
    NU = 0.25

    @classmethod
    def configs(cls, seed, smoke=False):
        quartic, sextic = list(cls.QUARTIC_EPS), cls.SEXTIC_EPS
        if smoke:
            quartic, sextic = [0.8, 0.5], 0.8
        elif seed != DEFAULT_SEED:
            rng = random.Random(f"constants:{seed}")
            quartic = [_eps_for_cutoff(rng, math.ceil(4.0 / e)) for e in quartic]
            sextic = _eps_for_cutoff(rng, math.ceil(4.0 / sextic))
        inverse = {"kind": "inverse", "factor": 4.0}
        return {"quartic": _doc("constants-quartic", seed, quartic, inverse,
                                symbol={"family": "quartic", "nu": cls.NU}),
                "sextic": _doc("constants-sextic", seed, [sextic], inverse,
                               potential=SEXTIC_V)}

    @staticmethod
    def parse(rows):
        return {"rows": [[float(x) for x in r] for r in rows]}

    @classmethod
    def check(cls, out, seed, smoke):
        fails = cls._exit_fails(out)
        if fails:
            return fails
        quartic, sextic = out["quartic"]["rows"], out["sextic"]["rows"]
        # columns: eps, K, sigma2_eps, lambda, C1, C2, C3, C_total
        if any(r[6] != 0.0 for r in quartic):
            fails.append("C3 != 0 for the quartic potential")
        if not all(r[6] != 0.0 and math.isfinite(r[6]) for r in sextic):
            fails.append("C3 == 0 (or non-finite) for the sextic potential")
        s2 = 1.0 / (8.0 * math.pi * math.sqrt(cls.NU))  # closed-form sigma2 limit
        errs = [abs(r[2] - s2) for r in quartic]
        if not all(a > b for a, b in zip(errs, errs[1:])):
            fails.append(f"sigma2_eps error does not shrink along the sweep: {errs}")
        if not all(math.isfinite(x) for r in quartic + sextic for x in r):
            fails.append("non-finite constants")
        return fails


WORKLOADS = {w.name: w for w in (Reconstruct, Constants)}
