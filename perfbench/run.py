"""phi4sim benchmark: one named workload, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each operation runs in a fresh worker process with FFT workers and
the BLAS/OpenMP thread pools pinned to 1, one process at a time.  See
``perfbench/README.md`` for the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS, pinned_mismatches  # noqa: E402

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "PHI4_THREADS")
SETUP_ONLY_PROCESSES = 2  # set-up samples besides the one of every operation
WORKER_TIMEOUT_S = 120.0
MAX_LOOP_S = 100.0  # start no operation after this, so a run ends within 180 s
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def per_layer_unit(name):
    leaf = name.split(".", 1)[1]
    if leaf.endswith("_s"):
        return "s"
    if leaf in ("c2c_share", "overhead_frac"):
        return "ratio"
    if leaf == "fft_bytes":
        return "B_computed"  # from array sizes, not measured traffic
    if leaf == "bytes_written":
        return "B"
    return "count"


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny configs for the benchmark's own tests; "
                        "pinned outputs are not checked")
    return p.parse_args(argv)


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "phi4sim").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Runner:
    def __init__(self, workload, seed, smoke, work):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.smoke = smoke
        self.work = work
        self.env = dict(os.environ, **{v: "1" for v in THREAD_ENV})
        self.env.pop("PYTHONPATH", None)
        self.configs = {}
        for key, doc in self.wl.configs(seed, smoke).items():
            path = work / f"{key}.yaml"  # JSON is valid YAML
            path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
            self.configs[key] = str(path)
        self.count = 0

    def spawn(self, setup_only=False, trace=False):
        """One worker process; returns its result dict (``error`` on failure)."""
        self.count += 1
        out_dir = self.work / f"op{self.count}"
        spec = {"root": str(ROOT), "workload": self.wl.name,
                "configs": self.configs, "out_dir": str(out_dir),
                "setup_only": setup_only, "trace": trace,
                "spans_path": str(self.work / "spans.json")}
        spec_path = self.work / f"spec{self.count}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        t0 = time.monotonic()
        launch = time.monotonic_ns()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path), str(launch)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() kills and reaps the child
            res = {"error": f"worker timed out after {WORKER_TIMEOUT_S} s"}
        else:
            lines = proc.stdout.strip().splitlines()
            try:
                res = json.loads(lines[-1]) if lines else {}
            except json.JSONDecodeError:
                res = {}
            if proc.returncode != 0 and "error" not in res:
                res["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        res["wall_s"] = time.monotonic() - t0
        shutil.rmtree(out_dir, ignore_errors=True)
        if not setup_only and "error" not in res:
            res["failures"] = self.wl.check(res["outputs"], self.seed, self.smoke)
        return res


def _median(values):
    return statistics.median(values) if values else float("nan")


def run(args):
    if not (ROOT / "src" / "phi4sim" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no phi4sim sources under {ROOT / 'src'}\n")
        return 2
    work = HERE / "_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results = HERE / "_work" / "results"
    results.mkdir(exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, args.smoke, work)
        pinned = None
        if args.seed == DEFAULT_SEED and not args.smoke:
            pinned = json.loads((HERE / "pinned.json").read_text())[args.workload]

        setups = [runner.spawn(setup_only=True) for _ in range(SETUP_ONLY_PROCESSES)]
        if any("error" in s for s in setups):
            sys.stderr.write("perfbench: set-up failed:\n" +
                             next(s["error"] for s in setups if "error" in s) + "\n")
            return 1

        ops, t_start = [], time.monotonic()
        min_ops = 2 if args.trace else 1  # a traced run needs an untraced twin
        while True:
            traced = bool(args.trace) and len(ops) % 2 == 1
            res = runner.spawn(trace=traced)
            res["traced"] = traced
            if pinned is not None and "outputs" in res:
                res["failures"] += pinned_mismatches(res["outputs"], pinned)
            ops.append(res)
            elapsed = time.monotonic() - t_start
            typical = _median([o["wall_s"] for o in ops])
            # stop when the next operation would end more than half an
            # operation after --seconds, so runs last --seconds on average
            if elapsed > MAX_LOOP_S or (len(ops) >= min_ops
                                        and elapsed + typical / 2 > args.seconds):
                break
        if args.trace:
            ref = next((o["outputs"] for o in ops if "outputs" in o and not o["traced"]), None)
            for o in ops:
                if o["traced"] and "outputs" in o and o["outputs"] != ref:
                    o["failures"].append("traced outputs differ from untraced outputs")
    finally:
        spans = work / "spans.json"
        if spans.exists():
            shutil.move(str(spans), results / f"{args.workload}-seed{args.seed}-spans.json")
        shutil.rmtree(work, ignore_errors=True)

    failed = [o for o in ops if "error" in o or o["failures"]]
    for o in failed:
        sys.stderr.write(f"perfbench: operation failed: "
                         f"{o.get('error') or '; '.join(o['failures'])}\n")
    done = [o for o in ops if "run_s" in o]
    plain = [o for o in done if not o["traced"]]
    if not plain or (args.trace and not any(o["traced"] for o in done)):
        sys.stderr.write("perfbench: no operation completed\n")
        return 1

    setup_samples = [s["setup_s"] for s in setups + ops if "setup_s" in s]
    samples = {"run_s": [o["run_s"] for o in plain], "setup_s": setup_samples,
               "peak_rss_mb": [o["peak_rss_mb"] for o in plain]}
    if args.trace:
        traced_ops = [o for o in done if o["traced"]]
        names = list(traced_ops[0]["layers"])
        samples = {n: [o["layers"][n] for o in traced_ops] for n in names}
        samples["trace.overhead_frac"] = [
            _median([o["run_s"] for o in traced_ops])
            / _median([o["run_s"] for o in plain]) - 1.0]
        units = {n: per_layer_unit(n) for n in samples}
    else:
        units = END_TO_END_UNITS
    metrics = {n: {"value": _median(v), "unit": units[n]} for n, v in samples.items()}

    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke, "commit": _commit(),
        "src_digest": _src_digest(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {v: runner.env[v] for v in THREAD_ENV},
        **done[0]["provenance"]}
    record = {"provenance": provenance, "metrics": metrics, "samples": samples,
              "operations": [{k: v for k, v in o.items() if k != "outputs"}
                             for o in ops],
              "outputs": done[0]["outputs"]}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(ops)} operations, {len(failed)} failed")
    for n, m in metrics.items():
        print(f"  {n:28s} {m['value']:<14.6g} {m['unit']:10s} "
              f"(median of {len(samples[n])})")
    print(f"  {'failed_frac':28s} {len(failed) / len(ops):<14.6g} {'ratio':10s} "
          f"({len(failed)} of {len(ops)} operations)")
    print("provenance " + json.dumps(provenance))
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(run(_parse_args(sys.argv[1:])))
