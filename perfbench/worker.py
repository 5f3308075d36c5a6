"""One benchmark operation in a fresh process.

    python3 perfbench/worker.py SPEC_JSON LAUNCH_NS

``LAUNCH_NS`` is ``time.monotonic_ns()`` in the parent just before it
started this process, so set-up time covers interpreter start, the imports
of numpy, scipy and phi4sim, and the loading and validation of the configs.
The last stdout line is one JSON object with the result.
"""

import json
import os
import resource
import sys
import time
import traceback


def _dir_bytes(path):
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def main(spec_path, launch_ns):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import numpy
    import scipy
    import scipy.fft  # noqa: F401  (part of set-up, as for any user)
    import phi4sim
    import phi4sim.cli  # noqa: F401
    from phi4sim.config import load_config

    if not os.path.abspath(phi4sim.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"phi4sim imported from {phi4sim.__file__}, not {src}")
    cfgs = {key: load_config(path) for key, path in spec["configs"].items()}
    phi4sim.fourier.set_threads(1)
    setup_s = (time.monotonic_ns() - launch_ns) / 1e9
    result = {"setup_s": setup_s}
    if spec["setup_only"]:
        return result

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS
    import tracer as tr

    wl = WORKLOADS[spec["workload"]]
    out_dir = spec["out_dir"]
    tracer = tr.Tracer().install() if spec["trace"] else None
    t0 = time.perf_counter()
    try:
        state = wl.body(cfgs, spec["configs"], out_dir)
    finally:
        run_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    result.update(
        run_s=run_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        outputs=wl.summarize(state, spec["configs"], out_dir),
        provenance={"python": sys.version.split()[0],
                    "numpy": numpy.__version__, "scipy": scipy.__version__,
                    "fft_workers": phi4sim.fourier.get_threads()})
    if tracer is not None:
        written = _dir_bytes(out_dir) if os.path.isdir(out_dir) else 0
        result["layers"] = tr.layer_metrics(tracer.spans, run_s, written)
        result["spans"] = len(tracer.spans)
        tracer.dump(spec["spans_path"])
    return result


if __name__ == "__main__":
    try:
        res = main(sys.argv[1], int(sys.argv[2]))
    except Exception:  # reported to the parent, which counts the failure
        print(json.dumps({"error": traceback.format_exc()}))
        sys.exit(1)
    print(json.dumps(res))
