"""Command-line entry point: experiment orchestration and CSV/manifest output.

Subcommands
-----------
constants   sweep eps, emit the renormalization-constant table
moments     Monte Carlo second-moment audit with z-scores against exact oracles
solve       integrate the remainder system, persist snapshots + a manifest
converge    matched-seed eps-sweep vs the limit system, emit Y-distances
validate    numerical checks on the smoothing symbol

All CSVs are comma-separated UTF-8 with Unix newlines and start with the
comment lines "# schema=1", "# version=...", "# config=<hash>", "# seed=<n>",
so a rerun from the same config and seed is byte-identical.  Failures exit
nonzero and print a single JSON object {"error": <reason>} on stderr; `solve`
still writes its manifest and exits 4 when a run blew up (run status
"blowup").  `converge` likewise writes its CSV, with the verdict
"incomplete", names such runs in a trailer line "# failed=<eps,...>" (0 is
the limit run) and exits 4.
"""

import argparse
import json
import math
import os
import platform
import sys
from dataclasses import replace

import numpy as np
import yaml

from . import __version__
from .config import SOLVER_DEFAULTS, config_hash, dump_config, load_config
from .diagrams import build_limit_upsilon, build_upsilon, mc_moment
from .errors import (BlowUpSignal, ConfigError, GrowthViolationError,
                     Phi4Error, SymbolError)
from .fourier import (FrequencyLattice, _atomic_open, get_threads, save_field,
                      set_threads, validate_symbol)
from .renorm import build_renorm, coupling_lambda, sigma2_limit
from .gaussian import NoiseSeed
from .solver import SolverConfig, solve, solve_final, y_distance

EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_RUN_FAILED = 4


def _fail(code, reason):
    sys.stderr.write(json.dumps({"error": reason}) + "\n")
    sys.exit(code)


def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path, cfg, seed, columns, rows, trailer=None):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with _atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# schema=1\n")
        fh.write(f"# version={__version__}\n")
        fh.write(f"# config={config_hash(cfg)}\n")
        fh.write(f"# seed={seed}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")
        for line in trailer or []:
            fh.write(f"# {line}\n")
    return path


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(cfg, out_dir, seed):
    rows = []
    for eps in cfg.eps or [0.1]:
        rep = validate_symbol(cfg.make_symbol(eps))
        rows.append((eps, rep.items["normalization"], rep.items["positivity"],
                     rep.items["growth"], rep.eta_hat, rep.passed))
        if not rep.items["growth"]:
            break
    path = _write_csv(os.path.join(out_dir, "validate.csv"), cfg, seed,
                      ["eps", "normalization", "positivity", "growth",
                       "eta_hat", "passed"], rows)
    if not rep.items["growth"]:
        _fail(EXIT_VALIDATION, "growth violation")
    return path


def _require_positive_eps(cfg):
    if not cfg.eps:
        _fail(EXIT_USAGE, "empty eps list")
    if any(e <= 0 for e in cfg.eps):
        _fail(EXIT_USAGE, "eps list must be positive")


def cmd_constants(cfg, out_dir, seed):
    _require_positive_eps(cfg)
    V = cfg.make_potential()
    rows = []
    for eps in cfg.eps:
        Q = cfg.make_symbol(eps)
        rep = validate_symbol(Q)
        if not rep.items["growth"]:
            _fail(EXIT_VALIDATION, "growth violation")
        K = cfg.cutoff_for(eps)
        rs = build_renorm(Q, V, K=K)
        rows.append((eps, K, rs.sigma2_eps, rs.lam, rs.C1, rs.C2, rs.C3,
                     rs.C_total))
    return _write_csv(os.path.join(out_dir, "constants.csv"), cfg, seed,
                      ["eps", "K", "sigma2_eps", "lambda", "C1", "C2", "C3",
                       "C_total"], rows)


def cmd_moments(cfg, out_dir, seed):
    if cfg.samples < 1:
        _fail(EXIT_USAGE, "zero samples")
    _require_positive_eps(cfg)
    V = cfg.make_potential()
    noise = NoiseSeed(seed)
    rows = []
    worst = 0.0
    for eps in cfg.eps:
        Q = cfg.make_symbol(eps)
        K = cfg.cutoff_for(eps)
        grid = FrequencyLattice(K)
        rs = build_renorm(Q, V, K=K)
        for symbol in ("one", ("wick", 2), "c1", "c2"):
            name = symbol if isinstance(symbol, str) else \
                f"{symbol[0]}{symbol[1]}"
            for rep in mc_moment(symbol, ((0, 0, 0), (1, 0, 0)), cfg.samples,
                                 noise, grid, Q, V=V, renorm_set=rs):
                z = rep.z if np.isfinite(rep.z) else 0.0
                worst = max(worst, abs(z))
                rows.append((eps, name, ";".join(map(str, rep.k)), rep.M,
                             rep.mean, rep.oracle, rep.se, rep.z))
    verdict = "pass" if worst <= 4.0 else "fail"
    return _write_csv(os.path.join(out_dir, "moments.csv"), cfg, seed,
                      ["eps", "symbol", "k", "M", "mean", "oracle", "se", "z"],
                      rows, trailer=[f"verdict={verdict}",
                                     f"max_abs_z={_fmt(float(worst))}"])


def _solver_config(cfg, eps, K, lam):
    s = {**SOLVER_DEFAULTS, **cfg.solver}
    return SolverConfig(eps=eps, lam=lam, K=K, dt=float(s["dt"]), T=float(s["T"]))


def _run_one(cfg, noise, eps, K, lam, V, run=solve):
    """The grid, solver config and noise build of one run, and `run`
    (`solve` or `solve_final`) of it from zero, which reads the build once.
    At eps > 0 the coupling is the RenormSet's, which scales the noises;
    `lam` (1 if None) the limit's."""
    Q = cfg.make_symbol(eps)
    grid = FrequencyLattice(K)
    sc = _solver_config(cfg, eps, K, 1.0 if lam is None else lam)
    t_grid = np.arange(int(round(sc.T / sc.dt)) + 1) * sc.dt
    if eps > 0:
        rs = build_renorm(Q, V, K=K)
        sc.lam = rs.lam
        U = build_upsilon(noise, grid, Q, V, eps, t_grid, rs)
    else:
        U = build_limit_upsilon(noise, grid, t_grid)
    z = np.zeros((grid.n,) * 3, dtype=np.complex128)
    return grid, sc, U, run(sc, U, z, z, V=V)


def _couplings(cfg, V, eps_list):
    """The coupling lambda of V at each eps > 0 of eps_list, ascending.  A
    potential without coupling, or a symbol that grows too slowly for the
    limit variance, fails here, before any run writes a file."""
    return [coupling_lambda(V, sigma2_limit(cfg.make_symbol(e)))
            for e in sorted(eps_list) if e > 0]


def _l2(c):
    """The L2 norm of a cube's coefficients; hypot keeps it finite for a
    state near overflow, as a blown-up run's last one can be."""
    return math.hypot(*np.abs(c).ravel())


def cmd_solve(cfg, out_dir, seed):
    if not cfg.eps:
        _fail(EXIT_USAGE, "empty eps list")
    V = cfg.make_potential()
    _couplings(cfg, V, cfg.eps)
    noise = NoiseSeed(seed)
    lam = cfg.solver.get("lam")
    manifest = {"version": __version__, "config": config_hash(cfg),
                "seed": int(seed), "runs": [],
                "environment": {"python": platform.python_version(),
                                "numpy": np.__version__,
                                "threads": int(get_threads())}}
    os.makedirs(out_dir, exist_ok=True)
    for eps in cfg.eps:
        K = cfg.cutoff_for(eps)
        entry = {"eps": float(eps), "K": int(K)}
        try:
            grid, sc, U, (v, w) = _run_one(cfg, noise, eps, K, lam, V, solve_final)
            entry.update(lam=float(sc.lam), t_final=float(U.t_grid[-1]), status="ok")
            for tag, final in (("v", v), ("w", w)):
                path = os.path.join(out_dir, f"{tag}_eps{eps:g}.fld")
                save_field(path, final[..., : K + 1], grid)
                entry[f"{tag}_snapshot"] = os.path.basename(path)
        except BlowUpSignal as sig:
            entry.update(status="blowup", blowup_time=float(sig.t),
                         blowup_step=int(sig.step),
                         blowup_v_l2=_l2(sig.last_state[0]),
                         blowup_w_l2=_l2(sig.last_state[1]))
        manifest["runs"].append(entry)
    path = os.path.join(out_dir, "manifest.yaml")
    with _atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        yaml.safe_dump(manifest, fh, sort_keys=True)
    dump_config(cfg, os.path.join(out_dir, "config.yaml"))
    failed = [r["eps"] for r in manifest["runs"] if r["status"] != "ok"]
    if failed:
        _fail(EXIT_RUN_FAILED, f"runs failed (see {path}): eps {failed}")
    return path


def cmd_converge(cfg, out_dir, seed):
    _require_positive_eps(cfg)
    V = cfg.make_potential()
    noise = NoiseSeed(seed)
    eps_sorted = sorted(float(e) for e in cfg.eps)
    # one shared lattice so the runs couple through identical mode noise
    K = cfg.cutoff_for(min(eps_sorted))
    lam = cfg.solver.get("lam")
    coupling = _couplings(cfg, V, eps_sorted)[0]  # checked whatever lam is
    if lam is None:
        lam = coupling
    kappa = float({**SOLVER_DEFAULTS, **cfg.solver}["kappa"])
    failed = []

    def run(eps):
        try:
            _, sc, _, pair = _run_one(cfg, noise, eps, K, lam, V)
        except BlowUpSignal:  # a blow-up gives no pair
            failed.append(eps)
            return None, None
        return sc, pair

    grid = FrequencyLattice(K)
    _, limit = run(0.0)
    rows = []
    prev = None
    monotone = True
    for eps in sorted(eps_sorted, reverse=True):
        sc, pair = run(eps)
        if pair is None or limit is None:
            continue
        dist = y_distance(pair, limit, 0.0, sc.T, grid, kappa=kappa,
                          n_half=V.n)
        if prev is not None and dist >= prev:
            monotone = False
        prev = dist
        rows.append((eps, K, lam, dist))
    verdict = "incomplete" if failed else "decreasing" if monotone else "non-monotone"
    trailer = [f"verdict={verdict}"]
    if failed:
        trailer.append("failed=" + ",".join(f"{e:g}" for e in failed))
    path = _write_csv(os.path.join(out_dir, "converge.csv"), cfg, seed,
                      ["eps", "K", "lambda", "y_distance"], rows, trailer=trailer)
    if failed:
        _fail(EXIT_RUN_FAILED, f"runs failed (see {path}): eps {failed}")
    return path


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser():
    p = argparse.ArgumentParser(prog="phi4sim",
                                description="spectral toolkit for a smoothed "
                                            "stochastic quantization equation")
    p.add_argument("command", choices=["constants", "moments", "solve",
                                       "converge", "validate"])
    p.add_argument("--config", required=True, help="YAML experiment config")
    p.add_argument("--out", default=None, help="output directory override")
    p.add_argument("--seed", type=int, default=None, help="master seed override")
    p.add_argument("--threads", type=int, default=None,
                   help="transform worker threads (default: PHI4_THREADS)")
    p.add_argument("--eps", default=None,
                   help="comma-separated eps list override")
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError, yaml.YAMLError) as exc:
        _fail(EXIT_USAGE, f"config error: {exc}")
    if args.eps is not None:
        try:
            eps = [float(tok) for tok in args.eps.split(",") if tok.strip()]
        except ValueError:
            _fail(EXIT_USAGE, "bad --eps list")
        try:
            cfg = replace(cfg, eps=eps)  # re-runs the config checks
        except ConfigError as exc:
            _fail(EXIT_USAGE, f"config error: {exc}")
    if args.threads is not None:
        set_threads(args.threads)
    if args.seed is not None and args.seed < 0:
        _fail(EXIT_USAGE, "config error: seed must be an integer >= 0")
    seed = args.seed if args.seed is not None else int(cfg.seed)
    out_dir = args.out or cfg.out_dir
    handler = {"constants": cmd_constants, "moments": cmd_moments,
               "solve": cmd_solve, "converge": cmd_converge,
               "validate": cmd_validate}[args.command]
    try:
        path = handler(cfg, out_dir, seed)
    except (GrowthViolationError, SymbolError) as exc:
        _fail(EXIT_VALIDATION, str(exc))
    except ConfigError as exc:
        _fail(EXIT_USAGE, f"config error: {exc}")
    except Phi4Error as exc:
        _fail(1, str(exc))
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
