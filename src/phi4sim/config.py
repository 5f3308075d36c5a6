"""Experiment configuration: a small YAML document describing the symbol
family, potential, epsilon sweep, cutoff rule, seeds, and solver settings.

The on-disk grammar is plain YAML with these keys (all scalars are
JSON-compatible); unknown keys are rejected at both levels, and so is every
scalar of the wrong type or out of the range noted below:

    name:      experiment label (string)
    symbol:    {family: quartic|laplacian, nu: <float>}        # quartic needs nu
    potential: [v2, v4, v6, ...]   ascending even coefficients of V (>= 2 numbers)
    eps:       [0.2, 0.1, ...]     epsilon sweep in [0, 1] (may be empty only for solve)
    k_rule:    {kind: inverse, factor: 4.0}  ->  K = ceil(factor / eps), factor > 0
               {kind: fixed,   K: 8}         ->  integer K >= 1
    seed:      master seed (integer >= 0)
    samples:   Monte Carlo replicas (integer >= 0)
    solver:    {dt, T: 0 < dt <= T, lam: null|float, kappa: > 0,
                mode: sequential|picard, picard_iters: integer >= 1}
    out_dir:   output directory

`dump_config(load_config(p))` reproduces the document byte-identically up to
YAML canonicalization, and `config_hash` is stable across round-trips.
"""

import hashlib
import math
from dataclasses import asdict, dataclass, field

import yaml

from .errors import ConfigError
from .fourier import DispersionQ, _atomic_open
from .renorm import Potential

KNOWN_FAMILIES = ("quartic", "laplacian")
SOLVER_DEFAULTS = {"dt": 1e-3, "T": 0.1, "lam": None, "kappa": 0.05,
                   "mode": "sequential", "picard_iters": 40}
NESTED_KEYS = {"symbol": {"family", "nu"},
               "k_rule": {"kind", "factor", "K"},
               "solver": set(SOLVER_DEFAULTS)}


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_count(x, least):
    return isinstance(x, int) and not isinstance(x, bool) and x >= least


@dataclass
class ExperimentConfig:
    name: str = "experiment"
    symbol: dict = field(default_factory=lambda: {"family": "quartic", "nu": 1.0})
    potential: list = field(default_factory=lambda: [0.0, 0.25])
    eps: list = field(default_factory=list)
    k_rule: dict = field(default_factory=lambda: {"kind": "inverse", "factor": 4.0})
    seed: int = 0
    samples: int = 0
    solver: dict = field(default_factory=dict)
    out_dir: str = "out"

    def __post_init__(self):
        for name, known in NESTED_KEYS.items():
            block = getattr(self, name)
            if not isinstance(block, dict):
                raise ConfigError(f"{name} must be a mapping")
            extra = set(block) - known
            if extra:
                raise ConfigError(f"unknown {name} keys: {sorted(extra)}")
        fam = self.symbol.get("family")
        if fam not in KNOWN_FAMILIES:
            raise ConfigError(f"unknown symbol family {fam!r}")
        if fam == "quartic" and "nu" not in self.symbol:
            raise ConfigError("quartic symbol family needs parameter nu")
        if not _is_number(self.symbol.get("nu", 0.0)):
            raise ConfigError(f"symbol nu must be a number: {self.symbol['nu']!r}")
        if not (isinstance(self.potential, list) and len(self.potential) >= 2
                and all(map(_is_number, self.potential))):
            raise ConfigError(f"potential must be >= 2 numbers: {self.potential!r}")
        kind = self.k_rule.get("kind")
        if kind not in ("inverse", "fixed"):
            raise ConfigError(f"unknown k_rule kind {kind!r}")
        if kind == "fixed" and not _is_count(self.k_rule.get("K"), 1):
            raise ConfigError(f"fixed k_rule needs an integer K >= 1: {self.k_rule!r}")
        factor = self.k_rule.get("factor")
        if kind == "inverse" and not (_is_number(factor) and factor > 0):
            raise ConfigError(f"inverse k_rule needs a factor > 0: {self.k_rule!r}")
        if not _is_count(self.seed, 0):
            raise ConfigError(f"seed must be an integer >= 0: {self.seed!r}")
        # eps = 0 is the limit run of solve
        if not isinstance(self.eps, list) or \
                not all(_is_number(e) and 0 <= e <= 1 for e in self.eps):
            raise ConfigError(f"eps must be numbers in [0, 1]: {self.eps!r}")
        solver = {**SOLVER_DEFAULTS, **self.solver}
        dt, T = solver["dt"], solver["T"]
        if not (_is_number(dt) and _is_number(T) and 0 < dt <= T):
            raise ConfigError(f"solver needs 0 < dt <= T: dt={dt!r}, T={T!r}")
        if solver["mode"] not in ("sequential", "picard"):
            raise ConfigError(f"unknown solver mode {solver['mode']!r}")
        if not (_is_number(solver["kappa"]) and solver["kappa"] > 0):
            raise ConfigError(f"solver kappa must be > 0: {solver['kappa']!r}")
        if not (solver["lam"] is None or _is_number(solver["lam"])):
            raise ConfigError(f"solver lam must be null or a number: {solver['lam']!r}")
        if not _is_count(solver["picard_iters"], 1):
            raise ConfigError("solver picard_iters must be an integer >= 1: "
                              f"{solver['picard_iters']!r}")
        if not _is_count(self.samples, 0):
            raise ConfigError(f"samples must be an integer >= 0: {self.samples!r}")

    def make_symbol(self, eps):
        fam = self.symbol["family"]
        if fam == "quartic":
            return DispersionQ.quartic(eps, float(self.symbol["nu"]))
        return DispersionQ.laplacian(eps)

    def make_potential(self):
        return Potential(tuple(float(c) for c in self.potential))

    def cutoff_for(self, eps):
        if self.k_rule["kind"] == "fixed":
            return int(self.k_rule["K"])
        if eps <= 0:
            raise ConfigError("inverse k_rule needs eps > 0")
        return math.ceil(float(self.k_rule["factor"]) / eps)


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a mapping")
    known = set(ExperimentConfig.__dataclass_fields__)
    extra = set(doc) - known
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    return ExperimentConfig(**doc)


def dump_config(cfg, path=None):
    text = yaml.safe_dump(asdict(cfg), sort_keys=True, default_flow_style=False)
    if path is not None:
        with _atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text


def config_hash(cfg):
    """Short stable digest of the canonicalized config document."""
    return hashlib.sha256(dump_config(cfg).encode("utf-8")).hexdigest()[:12]
