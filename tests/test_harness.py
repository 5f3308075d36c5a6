import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from phi4sim import cli, fourier
from phi4sim.config import (SOLVER_DEFAULTS, ConfigError, ExperimentConfig,
                            config_hash, dump_config, load_config)
from phi4sim.diagrams import EnhancedNoise
from phi4sim.errors import BlowUpSignal
from phi4sim.fourier import load_field, save_field
from phi4sim.gaussian import NoiseSeed
from phi4sim.renorm import build_renorm
from phi4sim.solver import y_distance
from conftest import delta_field


def _write_cfg(tmp_path, name="cfg.yaml", **overrides):
    doc = {
        "name": "tiny",
        "symbol": {"family": "quartic", "nu": 1.0},
        "potential": [0.0, 0.25],
        "eps": [0.4],
        "k_rule": {"kind": "inverse", "factor": 1.0},
        "seed": 7,
        "samples": 50,
        "solver": {"dt": 1e-3, "T": 0.004},
        "out_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# configuration


def test_config_round_trip_and_stable_hash(tmp_path):
    path = _write_cfg(tmp_path)
    cfg = load_config(path)
    h1 = config_hash(cfg)
    dumped = tmp_path / "dumped.yaml"
    dump_config(cfg, dumped)
    cfg2 = load_config(dumped)
    assert cfg == cfg2
    assert config_hash(cfg2) == h1


def test_config_rejects_unknown_key(tmp_path):
    path = _write_cfg(tmp_path, extra_knob=1)
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("block", [
    {"solver": {"T": 0.01, "dtt": 5}},
    {"symbol": {"family": "quartic", "nu": 1.0, "nuu": 3}},
    {"k_rule": {"kind": "inverse", "factor": 4.0, "factr": 9}},
    # the keys of the deleted Picard mode, with values it took or refused
    {"solver": {"mode": "picard"}},
    {"solver": {"picard_iters": 40}},
    {"solver": {"mode": "bogus"}},
    {"solver": {"picard_iters": 0}},
    {"solver": {"picard_iters": 2.5}},
])
def test_config_rejects_unknown_nested_key(tmp_path, capsys, block):
    path = _write_cfg(tmp_path, **block)
    with pytest.raises(ConfigError, match="unknown"):
        load_config(path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["constants", "--config", str(path)])
    assert exc.value.code == cli.EXIT_USAGE
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line)["error"].startswith("config error: unknown")


def test_readme_config_grammar_names_every_solver_key(tmp_path):
    # the README's example config loads, and its solver block documents
    # exactly the keys the config accepts
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Config grammar"):]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "grammar.yaml"
    path.write_text(block, encoding="utf-8")
    assert set(load_config(path).solver) == set(SOLVER_DEFAULTS)


@pytest.mark.parametrize("block", [
    {"eps": [1.5]},
    {"eps": [0.4, -0.1]},
    {"solver": {"dt": -1}},
    {"solver": {"T": 0}},
    {"solver": {"dt": 0.1, "T": 0.01}},
    {"samples": -3},
    {"k_rule": {"kind": "fixed", "K": "abc"}},
    {"k_rule": {"kind": "fixed", "K": -1}},
    {"k_rule": {"kind": "inverse", "factor": -4}},
    {"k_rule": {"kind": "inverse", "factor": 0}},
    {"seed": -1},
    {"solver": {"kappa": float("inf")}},
    {"solver": {"kappa": 0}},
    {"solver": {"lam": "x"}},
    {"solver": {"lam": True}},
    {"eps": 0.4},
    {"potential": [0.0, "x"]},
    {"symbol": {"family": "quartic", "nu": "abc"}},
    # not finite: factor .inf used to die with an OverflowError, nu .nan to
    # exit 1 and potential .inf to write lambda=inf as a successful row
    {"k_rule": {"kind": "inverse", "factor": float("inf")}},
    {"symbol": {"family": "quartic", "nu": float("nan")}},
    {"potential": [0.0, float("inf")]},
    {"potential": [0.0, 10**400]},
    {"solver": {"dt": 1e-3, "T": float("inf")}},
    {"solver": {"lam": float("nan")}},
])
def test_config_rejects_out_of_range_values(tmp_path, capsys, block):
    path = _write_cfg(tmp_path, **block)
    with pytest.raises(ConfigError):
        load_config(path)
    _expect_exit(["constants", "--config", str(path)], cli.EXIT_USAGE, capsys)


def test_cli_eps_override_is_range_checked(tmp_path, capsys):
    path = _write_cfg(tmp_path)
    err = _expect_exit(["constants", "--config", str(path), "--eps", "2"],
                       cli.EXIT_USAGE, capsys)
    assert "eps" in err["error"]


def test_cli_seed_override_is_range_checked(tmp_path, capsys):
    path = _write_cfg(tmp_path, k_rule={"kind": "fixed", "K": 2})
    err = _expect_exit(["solve", "--config", str(path), "--seed", "-1",
                        "--out", str(tmp_path / "s")], cli.EXIT_USAGE, capsys)
    assert "seed" in err["error"]


def test_config_rejects_unknown_family(tmp_path):
    path = _write_cfg(tmp_path, symbol={"family": "cubic"})
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_quartic_needs_nu():
    with pytest.raises(ConfigError):
        ExperimentConfig(symbol={"family": "quartic"})


def test_config_cutoff_rules():
    cfg = ExperimentConfig(k_rule={"kind": "inverse", "factor": 4.0},
                           symbol={"family": "quartic", "nu": 1.0})
    assert cfg.cutoff_for(0.5) == 8
    with pytest.raises(ConfigError):
        cfg.cutoff_for(0.0)
    fixed = ExperimentConfig(k_rule={"kind": "fixed", "K": 6},
                             symbol={"family": "quartic", "nu": 1.0})
    assert fixed.cutoff_for(0.01) == 6
    with pytest.raises(ConfigError):
        ExperimentConfig(k_rule={"kind": "fixed"},
                         symbol={"family": "quartic", "nu": 1.0})


def test_config_rejects_non_mapping(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- 1\n- 2\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


# ---------------------------------------------------------------------------
# CLI plumbing


def _expect_exit(argv, code, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == code
    err = capsys.readouterr().err.strip()
    return json.loads(err.splitlines()[-1])


def test_cli_constants_writes_schema_and_is_deterministic(tmp_path, capsys):
    path = _write_cfg(tmp_path)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert cli.main(["constants", "--config", str(path), "--out", str(out1)]) == 0
    assert cli.main(["constants", "--config", str(path), "--out", str(out2)]) == 0
    data1 = (out1 / "constants.csv").read_bytes()
    data2 = (out2 / "constants.csv").read_bytes()
    assert data1 == data2
    lines = data1.decode("utf-8").split("\n")
    assert lines[0] == "# schema=1"
    assert lines[2].startswith("# config=")
    assert lines[3] == "# seed=7"
    assert lines[4].split(",")[0] == "eps"
    assert len([ln for ln in lines if ln and not ln.startswith("#")]) == 2


_NO_SCIPY_RUN = """
import sys
import phi4sim, phi4sim.cli
assert phi4sim.cli.main(["constants", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_the_package_and_a_constants_run_load_no_scipy(tmp_path):
    import phi4sim

    path = _write_cfg(tmp_path)
    src = os.path.dirname(os.path.dirname(phi4sim.__file__))
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN, str(path),
                          str(tmp_path / "o")],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"


@pytest.mark.parametrize("workload", ["reconstruct", "constants"])
def test_a_benchmark_smoke_run_is_correct(workload):
    # the benchmark's worker runs the package as a user does, through the
    # API (reconstruct) and the command line (constants)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run([sys.executable, os.path.join(root, "perfbench", "run.py"),
                          "--workload", workload, "--smoke", "--seconds", "0"],
                         cwd=root, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.strip().splitlines()[-1])["correct"] is True


def test_cli_seed_and_eps_overrides(tmp_path):
    path = _write_cfg(tmp_path)
    out = tmp_path / "o"
    cli.main(["constants", "--config", str(path), "--out", str(out),
              "--seed", "99", "--eps", "0.5"])
    lines = (out / "constants.csv").read_text().split("\n")
    assert lines[3] == "# seed=99"
    assert lines[5].startswith("0.5,")


@pytest.mark.parametrize("command", ["constants", "moments", "solve", "converge"])
def test_cli_constants_empty_eps_is_usage_error(tmp_path, capsys, command):
    # validate is the one command that runs on an empty list (at eps 0.1)
    path = _write_cfg(tmp_path, eps=[])
    err = _expect_exit([command, "--config", str(path)], cli.EXIT_USAGE,
                       capsys)
    assert err["error"] == "empty eps list"


def test_cli_constants_laplacian_fails_validation(tmp_path, capsys):
    path = _write_cfg(tmp_path, symbol={"family": "laplacian"})
    err = _expect_exit(["constants", "--config", str(path)],
                       cli.EXIT_VALIDATION, capsys)
    assert err["error"] == "growth violation"


@pytest.mark.parametrize("command", ["validate", "constants", "moments",
                                     "solve", "converge"])
def test_cli_inadmissible_symbol_fails_validation(tmp_path, capsys, command):
    # every command reports a symbol of too slow growth as a validation failure
    path = _write_cfg(tmp_path, symbol={"family": "laplacian"})
    err = _expect_exit([command, "--config", str(path), "--out",
                        str(tmp_path / "o")], cli.EXIT_VALIDATION, capsys)
    assert "growth" in err["error"]


def test_cli_bad_config_path_is_usage_error(tmp_path, capsys):
    err = _expect_exit(["constants", "--config", str(tmp_path / "nope.yaml")],
                       cli.EXIT_USAGE, capsys)
    assert "config error" in err["error"]


def test_cli_validate_pass_and_fail(tmp_path, capsys):
    ok = _write_cfg(tmp_path, name="ok.yaml")
    out = tmp_path / "v"
    assert cli.main(["validate", "--config", str(ok), "--out", str(out)]) == 0
    rows = (out / "validate.csv").read_text().split("\n")
    assert rows[5].endswith(",1")  # booleans serialize as 0/1
    bad = _write_cfg(tmp_path, name="bad.yaml", symbol={"family": "laplacian"})
    err = _expect_exit(["validate", "--config", str(bad), "--out", str(out)],
                       cli.EXIT_VALIDATION, capsys)
    assert err["error"] == "growth violation"


def test_cli_moments_zero_samples_is_usage_error(tmp_path, capsys):
    path = _write_cfg(tmp_path, samples=0)
    err = _expect_exit(["moments", "--config", str(path)], cli.EXIT_USAGE,
                       capsys)
    assert err["error"] == "zero samples"


def test_cli_moments_tiny_run(tmp_path):
    path = _write_cfg(tmp_path)
    out = tmp_path / "m"
    assert cli.main(["moments", "--config", str(path), "--out", str(out)]) == 0
    text = (out / "moments.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "# schema=1"
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    assert body[0].split(",")[:3] == ["eps", "symbol", "k"]
    assert len(body) == 1 + 8  # 4 symbols x 2 modes
    trailer = [ln for ln in lines if ln.startswith("# verdict=")]
    assert trailer and trailer[0] == "# verdict=pass"
    assert any(ln.startswith("# max_abs_z=") for ln in lines)


def test_cli_moments_draws_each_sample_and_oracle_once_per_symbol(tmp_path,
                                                                  monkeypatch):
    # one eps, four symbols, two modes: each symbol's 50 samples are drawn
    # once for both modes, and each oracle cube is built once per chaos order
    from phi4sim import diagrams, renorm
    calls = {"draws": 0, "cubes": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(diagrams, "sample_stationary",
                        counted("draws", diagrams.sample_stationary))
    monkeypatch.setattr(renorm, "chaos_convolution_power",
                        counted("cubes", renorm.chaos_convolution_power))
    path = _write_cfg(tmp_path)
    assert cli.main(["moments", "--config", str(path), "--out",
                     str(tmp_path / "m")]) == 0
    # wick2, and c1, c2 of the quartic: one chaos order each
    assert calls == {"draws": 4 * 50, "cubes": 3}


def test_cli_solve_writes_manifest_and_snapshots(tmp_path):
    path = _write_cfg(tmp_path, k_rule={"kind": "fixed", "K": 2})
    out = tmp_path / "s"
    assert cli.main(["solve", "--config", str(path), "--out", str(out)]) == 0
    manifest = yaml.safe_load((out / "manifest.yaml").read_text())
    assert manifest["seed"] == 7
    run = manifest["runs"][0]
    assert run["status"] == "ok" and run["eps"] == 0.4 and run["K"] == 2
    for tag in ("v", "w"):
        grid, _ = load_field(out / run[f"{tag}_snapshot"])
        assert grid.K == 2
    assert load_config(out / "config.yaml") is not None


@pytest.mark.parametrize("eps, solver", [
    (0.4, {"dt": 1e-3, "T": 0.004}),
    (0.0, {"dt": 1e-3, "T": 0.004}),
], ids=["quartic", "limit"])
def test_cli_solve_snapshots_are_the_collected_solve_s_last_slice(tmp_path, eps,
                                                                 solver):
    # the CLI run keeps only the final state (`solve_final`); `_run_one`
    # solves the whole trajectory (`solve`) on the same build
    path = _write_cfg(tmp_path, eps=[eps], k_rule={"kind": "fixed", "K": 2},
                      solver=solver)
    out = tmp_path / "s"
    assert cli.main(["solve", "--config", str(path), "--out", str(out)]) == 0
    run = yaml.safe_load((out / "manifest.yaml").read_text())["runs"][0]
    cfg = load_config(path)
    grid, _, _, pair = cli._run_one(cfg, NoiseSeed(7), eps, 2, None,
                                    cfg.make_potential())
    for tag, traj in (("v", pair.v_traj), ("w", pair.w_traj)):
        want = tmp_path / f"{tag}.fld"
        save_field(want, traj[-1][..., :3], grid)
        assert (out / run[f"{tag}_snapshot"]).read_bytes() == want.read_bytes()


def test_cli_solve_memory_does_not_grow_with_the_time_span(tmp_path):
    # K = 4: at 4T a run that holds the trajectories holds 12 more slices of
    # the noise components and of v and w, and its peak rises from about
    # 0.8 to 1.4 MB; the traced command computes its constants too
    peaks = []
    for T in (0.004, 0.016):
        path = _write_cfg(tmp_path, k_rule={"kind": "fixed", "K": 4},
                          solver={"dt": 1e-3, "T": T})
        argv = ["solve", "--config", str(path), "--out", str(tmp_path / "s")]
        assert cli.main(argv) == 0  # warm the caches
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 0.1 * peaks[0]


def test_cli_solve_takes_lambda_from_the_constants_at_positive_eps(tmp_path):
    # the noise build scales c0..c3 by rs.lam; the remainder system is the
    # equation only at that coupling, whatever the config's lam
    path = _write_cfg(tmp_path, potential=[0.0, 0.0, 1.0], eps=[0.3],
                      k_rule={"kind": "fixed", "K": 4},
                      solver={"dt": 1e-3, "T": 0.005, "lam": 1.0})
    out = tmp_path / "s"
    assert cli.main(["solve", "--config", str(path), "--out", str(out)]) == 0
    run = yaml.safe_load((out / "manifest.yaml").read_text())["runs"][0]
    cfg = load_config(path)
    rs = build_renorm(cfg.make_symbol(0.3), cfg.make_potential(), K=4)
    assert abs(rs.lam - 2.387) < 1e-3  # 6 times sextic(1.0)'s 0.398
    assert run["status"] == "ok" and run["lam"] == rs.lam


# lambda = 4 * 2.5e7 = 1e8 blows the runs up
BLOWUP_V = [0.0, 2.5e7]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_solve_records_the_blowup_state_and_the_environment(tmp_path, capsys):
    path = _write_cfg(tmp_path, k_rule={"kind": "fixed", "K": 2},
                      potential=BLOWUP_V)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        _expect_exit(["solve", "--config", str(path), "--out", str(out)],
                     cli.EXIT_RUN_FAILED, capsys)
    text = [(out / "manifest.yaml").read_bytes() for out in outs]
    assert text[0] == text[1]
    manifest = yaml.safe_load(text[0])
    assert manifest["environment"] == {"python": platform.python_version(),
                                       "numpy": np.__version__,
                                       "threads": fourier.get_threads()}
    run = manifest["runs"][0]
    assert run["status"] == "blowup"
    cfg = load_config(path)
    with pytest.raises(BlowUpSignal) as exc:  # the whole-trajectory path, `solve`
        cli._run_one(cfg, NoiseSeed(7), 0.4, 2, None, cfg.make_potential())
    sig = exc.value
    assert run["blowup_step"] == sig.step and run["blowup_time"] == sig.t
    for tag, state in zip("vw", sig.last_state):
        scale = float(np.max(np.abs(state)))  # |w| reaches 1e253 here
        want = scale * math.sqrt(float(np.sum((np.abs(state) / scale) ** 2)))
        assert math.isfinite(run[f"blowup_{tag}_l2"])
        assert run[f"blowup_{tag}_l2"] == pytest.approx(want, rel=1e-12)


def test_a_sequential_converge_run_streams_its_builds(tmp_path, monkeypatch):
    # each run's solve reads the slices as its build makes them: no build
    # is collected, so none holds the trajectories of `one` and c30
    def refuse(*args, **kwargs):
        raise AssertionError("a sequential converge run collected its build")

    monkeypatch.setattr(EnhancedNoise, "collect", refuse)
    path = _write_cfg(tmp_path, eps=[0.5, 0.4], k_rule={"kind": "fixed", "K": 2},
                      solver={"dt": 1e-3, "T": 0.004})
    assert cli.main(["converge", "--config", str(path), "--out", str(tmp_path / "c")]) == 0


@pytest.mark.parametrize("potential", [[0.0, 0.0], [1.0, 0.0]], ids=["zero", "mass"])
@pytest.mark.parametrize("command", ["constants", "moments", "solve", "converge"])
def test_cli_a_potential_without_coupling_is_a_usage_error(tmp_path, capsys, command,
                                                            potential):
    # the noises are scaled by 1/lambda; lambda = E V''''(X) / 6 depends on
    # the variance at degree >= 6, so it is checked where it is computed
    path = _write_cfg(tmp_path, potential=potential, k_rule={"kind": "fixed", "K": 2})
    err = _expect_exit([command, "--config", str(path), "--out", str(tmp_path / "o")],
                       cli.EXIT_USAGE, capsys)
    assert err["error"].startswith("config error:") and "lambda" in err["error"]


def test_cli_converge_with_a_set_lambda_rejects_a_potential_without_coupling_first(
        tmp_path, capsys, monkeypatch):
    # the limit run needs no constants, so it must not start before the check
    def refuse(*args, **kwargs):
        raise AssertionError("converge started the limit run")

    monkeypatch.setattr(cli, "stream_limit_upsilon", refuse)
    path = _write_cfg(tmp_path, potential=[0.0, 0.0], eps=[0.5, 0.4],
                      k_rule={"kind": "fixed", "K": 4},
                      solver={"dt": 1e-3, "T": 0.004, "lam": 1.0})
    with pytest.raises(SystemExit) as exc:
        cli.main(["converge", "--config", str(path), "--out", str(tmp_path / "c")])
    assert exc.value.code == cli.EXIT_USAGE
    (line,) = capsys.readouterr().err.strip().splitlines()
    err = json.loads(line)
    assert err["error"].startswith("config error:") and "lambda" in err["error"]


@pytest.mark.parametrize("block, code", [
    ({"potential": [0.0, 0.0]}, cli.EXIT_USAGE),
    ({"symbol": {"family": "laplacian"}}, cli.EXIT_VALIDATION),
], ids=["no-coupling", "laplacian"])
def test_cli_solve_checks_each_positive_eps_before_the_limit_run(tmp_path, capsys,
                                                                 monkeypatch, block, code):
    # eps 0 comes first, so a coupling or a symbol that fails at eps 0.4 must
    # fail before the limit run writes its snapshots
    def refuse(*args, **kwargs):
        raise AssertionError("solve started the limit run")

    monkeypatch.setattr(cli, "stream_limit_upsilon", refuse)
    path = _write_cfg(tmp_path, eps=[0.0, 0.4], k_rule={"kind": "fixed", "K": 2},
                      **block)
    out = tmp_path / "s"
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--config", str(path), "--out", str(out)])
    assert exc.value.code == code
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert "error" in json.loads(line)
    assert not list(tmp_path.rglob("*.fld"))


def test_cli_converge_tiny_run(tmp_path):
    path = _write_cfg(tmp_path, eps=[0.5, 0.4],
                      k_rule={"kind": "fixed", "K": 2},
                      solver={"dt": 1e-3, "T": 0.004, "lam": 1.0})
    out = tmp_path / "c"
    assert cli.main(["converge", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "converge.csv").read_text().strip().split("\n")
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    assert body[0] == "eps,K,lambda,y_distance"
    assert len(body) == 3  # header + two eps rows
    eps_col = [float(ln.split(",")[0]) for ln in body[1:]]
    assert eps_col == [0.5, 0.4]  # largest eps first
    assert any(ln.startswith("# verdict=") for ln in lines)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_converge_failed_run_exits_nonzero(tmp_path, capsys):
    path = _write_cfg(tmp_path, eps=[0.5, 0.4], potential=BLOWUP_V,
                      k_rule={"kind": "fixed", "K": 2})
    out = tmp_path / "c"
    err = _expect_exit(["converge", "--config", str(path), "--out", str(out)],
                       cli.EXIT_RUN_FAILED, capsys)
    assert "converge.csv" in err["error"]
    lines = (out / "converge.csv").read_text().strip().split("\n")
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    assert len(body) == 1  # a blown-up limit leaves no distance
    assert lines[-1] == "# failed=0,0.5,0.4"  # the limit run is eps 0


def _disk_full(*args, **kwargs):
    raise OSError("disk full")


def _interrupt_csv(monkeypatch, out):
    cfg = load_config(_write_cfg(out))
    write = lambda: cli._write_csv(str(out / "t.csv"), cfg, 7, ["x"], [(1.5,)])
    write()
    monkeypatch.setattr(cli, "_fmt", _disk_full)  # the header is written by then
    return "t.csv", write


def _interrupt_manifest(monkeypatch, out):
    path = _write_cfg(out, k_rule={"kind": "fixed", "K": 1},
                      solver={"dt": 1e-3, "T": 0.002})
    cfg = load_config(path)
    write = lambda: cli.cmd_solve(cfg, str(out), 7)
    write()
    real = yaml.safe_dump

    def half_dump(data, stream=None, **kw):
        if stream is None:  # config_hash still dumps to a string
            return real(data, **kw)
        stream.write("runs:\n")
        _disk_full()
    monkeypatch.setattr(yaml, "safe_dump", half_dump)
    return "manifest.yaml", write


def _interrupt_snapshot(monkeypatch, out):
    g = fourier.FrequencyLattice(1)
    F = delta_field(g, (1, 0, 0))
    write = lambda: fourier.save_field(out / "f.fld", F, g)
    write()
    # the magic is written by the time the header is packed
    monkeypatch.setattr(fourier, "struct", SimpleNamespace(pack=_disk_full))
    return "f.fld", write


@pytest.mark.parametrize("setup", [_interrupt_csv, _interrupt_manifest,
                                   _interrupt_snapshot],
                         ids=["csv", "manifest", "snapshot"])
def test_interrupted_write_keeps_the_previous_file(tmp_path, monkeypatch, setup):
    out = tmp_path / "o"
    out.mkdir()
    name, write = setup(monkeypatch, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    with pytest.raises(OSError, match="disk full"):
        write()
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert after == before  # previous file intact, no temporary file left
    assert before[name]


def test_cli_converge_rejects_nonpositive_eps(tmp_path, capsys):
    path = _write_cfg(tmp_path, eps=[0.4, 0.0])
    err = _expect_exit(["converge", "--config", str(path)], cli.EXIT_USAGE,
                       capsys)
    assert "positive" in err["error"]


@pytest.mark.parametrize("command, k_rule, code", [
    ("constants", {"kind": "fixed", "K": 2}, cli.EXIT_USAGE),
    ("moments", {"kind": "fixed", "K": 2}, cli.EXIT_USAGE),
    ("converge", {"kind": "fixed", "K": 2}, cli.EXIT_USAGE),
    ("constants", {"kind": "inverse", "factor": 1.0}, cli.EXIT_USAGE),
    ("solve", {"kind": "inverse", "factor": 1.0}, cli.EXIT_USAGE),
    ("solve", {"kind": "fixed", "K": 2}, 0),  # the limit run
], ids=["constants", "moments", "converge", "constants-inverse", "solve-inverse",
        "solve-limit"])
def test_cli_eps_zero_is_a_usage_error_except_the_limit_solve(
        tmp_path, capsys, command, k_rule, code):
    path = _write_cfg(tmp_path, eps=[0.0], k_rule=k_rule)
    argv = [command, "--config", str(path), "--out", str(tmp_path / "o")]
    if code == 0:
        assert cli.main(argv) == 0
        return
    err = _expect_exit(argv, code, capsys)
    assert "eps" in err["error"]


def test_cli_converge_uses_the_config_kappa(tmp_path):
    path = _write_cfg(tmp_path, eps=[0.4], k_rule={"kind": "fixed", "K": 2},
                      solver={"dt": 1e-3, "T": 0.004, "lam": 1.0, "kappa": 0.2})
    out = tmp_path / "c"
    assert cli.main(["converge", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "converge.csv").read_text().splitlines()
    row = [ln for ln in lines if ln and ln[0].isdigit()][0].split(",")
    cfg = load_config(path)
    V = cfg.make_potential()
    grid, sc, _, limit = cli._run_one(cfg, NoiseSeed(7), 0.0, 2, 1.0, V)
    _, _, _, pair = cli._run_one(cfg, NoiseSeed(7), 0.4, 2, 1.0, V)
    want = y_distance(pair, limit, 0.0, sc.T, grid, kappa=0.2, n_half=V.n)
    assert float(row[0]) == 0.4 and float(row[-1]) == want
    assert want != y_distance(pair, limit, 0.0, sc.T, grid, n_half=V.n)
