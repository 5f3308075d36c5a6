"""Span tracing of phi4sim from outside the package.

``Tracer.install()`` wraps every function defined at module level in the
layer modules and rebinds each wrapper wherever a phi4sim module holds the
original under any name, because modules import each other's functions by
name.  Methods are not wrapped: a method's time counts to the layer that
calls it, so ``Potential.eval`` inside the noise build is ``diagrams`` time
and ``FrequencyLattice.embed`` inside the pair integrals is ``renorm`` time.
It also wraps ``scipy.fft.{fftn, ifftn, rfftn, irfftn}`` so transforms are
counted and timed.

A span is ``[name, layer, start, end, parent, error, extra]``; spans stay in
memory and are written out once, by ``dump``.  A span's exclusive time is
its duration minus its direct children's.  A layer's self time is the sum of
the exclusive times of its spans, so nested spans of one layer are never
counted twice; FFT time is charged to the layer of the innermost enclosing
span.  Self times, FFT times and the time outside every span add up to the
traced body time.
"""

import functools
import inspect
import json
import sys
import time

LAYER_MODULES = {
    "fourier": "fourier", "besov": "besov", "gaussian": "gaussian",
    "renorm": "renorm", "diagrams": "diagrams", "solver": "solver",
    "cli": "cli", "config": "cli",
}
LAYERS = ("fourier", "besov", "gaussian", "renorm", "diagrams", "solver", "cli")
FFT_FUNCS = ("fftn", "ifftn", "rfftn", "irfftn")
NAME, LAYER, START, END, PARENT, ERROR, EXTRA = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, layer):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = 1
                raise
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def _wrap_fft(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(x, *args, **kwargs):
            span = [name, "fft", 0.0, 0.0, stack[-1] if stack else -1, 0, None]
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(x, *args, **kwargs)
            except BaseException:
                span[END] = clock()
                span[ERROR] = 1
                raise
            span[END] = clock()
            # points: the physical-side array of the transform (batch included)
            points = out.size if name == "irfftn" else x.size
            span[EXTRA] = (points, x.nbytes + out.nbytes, name in ("fftn", "ifftn"))
            return out

        return traced

    def install(self):
        """Wrap the layer functions and scipy.fft; returns self."""
        import scipy.fft

        mods = {n: m for n, m in sys.modules.items()
                if n == "phi4sim" or n.startswith("phi4sim.")}
        replace = {}  # id(original) -> wrapper
        for short, layer in LAYER_MODULES.items():
            mod = mods[f"phi4sim.{short}"]
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replace[id(obj)] = self._wrap(obj, f"{short}.{attr}", layer)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and inspect.isfunction(obj):
                    self._set(mod, attr, replace[id(obj)])
        for name in FFT_FUNCS:
            self._set(scipy.fft, name, self._wrap_fft(getattr(scipy.fft, name), name))
        return self

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent",
                                  "error", "extra"], "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# aggregation


def _inclusive(spans, names):
    """Summed duration of the outermost spans whose name is in ``names``."""
    total = 0.0
    for s in spans:
        if s[NAME] in names and not _has_ancestor(spans, s, names):
            total += s[END] - s[START]
    return total


def _has_ancestor(spans, s, names=None, layer=None):
    p = s[PARENT]
    while p >= 0:
        a = spans[p]
        if (names is not None and a[NAME] in names) or \
                (layer is not None and a[LAYER] == layer):
            return True
        p = a[PARENT]
    return False


def _count(spans, name, under=None, under_layer=None):
    return sum(1 for s in spans if s[NAME] == name and
               (under is None or _has_ancestor(spans, s, names=under)) and
               (under_layer is None or _has_ancestor(spans, s, layer=under_layer)))


def layer_metrics(spans, run_s, bytes_written):
    """Per-layer metrics of one traced body (values only, no units)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    self_s = dict.fromkeys(LAYERS, 0.0)
    fft_s = dict.fromkeys(LAYERS, 0.0)
    fft = {layer: [0, 0, 0, 0] for layer in LAYERS}  # calls, points, c2c points, bytes
    covered = 0.0
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        if s[PARENT] < 0:
            covered += dur
        if s[LAYER] == "fft":
            owner = spans[s[PARENT]][LAYER] if s[PARENT] >= 0 else None
            if owner is None:
                continue  # outside every layer: left in the unattributed time
            points, nbytes, c2c = s[EXTRA] or (0, 0, False)
            fft_s[owner] += dur
            acc = fft[owner]
            acc[0] += 1
            acc[1] += points
            acc[2] += points if c2c else 0
            acc[3] += nbytes
        else:
            self_s[s[LAYER]] += dur - child[i]
    march = _inclusive(spans, {"solver._march"}) - sum(
        s[END] - s[START] for s in spans
        if s[NAME] == "solver.coeffs_F_traj"
        and _has_ancestor(spans, s, names={"solver._march"}))
    f = fft["fourier"]
    m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    m.update({
        "fourier.fft_s": fft_s["fourier"],
        "fourier.fft_calls": f[0],
        "fourier.fft_points": f[1],
        "fourier.c2c_share": f[2] / f[1] if f[1] else 0.0,
        "fourier.fft_bytes": f[3],
        "besov.blocks_calls": _count(spans, "besov._blocks_physical"),
        "besov.combine_calls": _count(spans, "besov.combine"),
        "gaussian.streams": _count(spans, "gaussian.unit_hermitian_normals"),
        "gaussian.advance_calls": _count(spans, "gaussian.advance"),
        "renorm.fft_s": fft_s["renorm"],
        "renorm.fft_points": fft["renorm"][1],
        "renorm.pair_integral_calls": _count(spans, "renorm.stationary_pair_integral"),
        "diagrams.upsilon_s": _inclusive(
            spans, {"diagrams.build_upsilon", "diagrams.build_limit_upsilon"}),
        "diagrams.noise_steps": _count(spans, "gaussian.advance",
                                       under_layer="diagrams"),
        "solver.coeffs_F_s": _inclusive(spans, {"solver.coeffs_F_traj",
                                                "solver.coeffs_F"}),
        "solver.march_s": march,
        "solver.g_map_calls": _count(spans, "solver.g_map"),
        "solver.steps": _count(spans, "solver.g_map", under={"solver._march"})
        + _count(spans, "gaussian.ou_increment",
                 under={"solver.brute_force_reference"}),
        "solver.reference_s": _inclusive(spans, {"solver.brute_force_reference"}),
        "cli.bytes_written": bytes_written,
        "trace.errors": sum(s[ERROR] for s in spans),
        "trace.run_s": run_s,
        "trace.unattributed_s": run_s - covered + sum(
            s[END] - s[START] for s in spans
            if s[LAYER] == "fft" and s[PARENT] < 0),
        # FFTs called directly by other layers (none at present)
        "trace.fft_other_s": sum(v for k, v in fft_s.items()
                                 if k not in ("fourier", "renorm")),
    })
    return m
