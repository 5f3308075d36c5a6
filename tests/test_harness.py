import json
from types import SimpleNamespace

import pytest
import yaml

from phi4sim import cli, fourier
from phi4sim.config import (ConfigError, ExperimentConfig, config_hash,
                            dump_config, load_config)
from phi4sim.fourier import load_field
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
    {"solver": {"picard_iters": 3, "dtt": 5}},
    {"symbol": {"family": "quartic", "nu": 1.0, "nuu": 3}},
    {"k_rule": {"kind": "inverse", "factor": 4.0, "factr": 9}},
])
def test_config_rejects_unknown_nested_key(tmp_path, capsys, block):
    path = _write_cfg(tmp_path, **block)
    with pytest.raises(ConfigError, match="unknown"):
        load_config(path)
    _expect_exit(["constants", "--config", str(path)], cli.EXIT_USAGE, capsys)


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
    {"solver": {"mode": "bogus"}},
    {"solver": {"kappa": 0}},
    {"solver": {"lam": "x"}},
    {"solver": {"picard_iters": 0}},
    {"solver": {"picard_iters": 2.5}},
    {"potential": [0.0, "x"]},
    {"symbol": {"family": "quartic", "nu": "abc"}},
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


def test_cli_seed_and_eps_overrides(tmp_path):
    path = _write_cfg(tmp_path)
    out = tmp_path / "o"
    cli.main(["constants", "--config", str(path), "--out", str(out),
              "--seed", "99", "--eps", "0.5"])
    lines = (out / "constants.csv").read_text().split("\n")
    assert lines[3] == "# seed=99"
    assert lines[5].startswith("0.5,")


def test_cli_constants_empty_eps_is_usage_error(tmp_path, capsys):
    path = _write_cfg(tmp_path, eps=[])
    err = _expect_exit(["constants", "--config", str(path)], cli.EXIT_USAGE,
                       capsys)
    assert err["error"] == "empty eps list"


def test_cli_constants_laplacian_fails_validation(tmp_path, capsys):
    path = _write_cfg(tmp_path, symbol={"family": "laplacian"})
    err = _expect_exit(["constants", "--config", str(path)],
                       cli.EXIT_VALIDATION, capsys)
    assert err["error"] == "growth violation"


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


def test_cli_solve_writes_manifest_and_snapshots(tmp_path):
    path = _write_cfg(tmp_path, k_rule={"kind": "fixed", "K": 2})
    out = tmp_path / "s"
    assert cli.main(["solve", "--config", str(path), "--out", str(out)]) == 0
    manifest = yaml.safe_load((out / "manifest.yaml").read_text())
    assert manifest["seed"] == 7
    run = manifest["runs"][0]
    assert run["status"] == "ok" and run["eps"] == 0.4 and run["K"] == 2
    for tag in ("v", "w"):
        f = load_field(out / run[f"{tag}_snapshot"])
        assert f.grid.K == 2
    assert load_config(out / "config.yaml") is not None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("solver, status", [
    ({"dt": 1e-3, "T": 0.004, "mode": "picard", "picard_iters": 1},
     "not_converged"),
    ({"dt": 1e-3, "T": 0.004, "lam": 1e8}, "blowup"),
])
def test_cli_solve_failed_run_exits_nonzero(tmp_path, capsys, solver, status):
    path = _write_cfg(tmp_path, k_rule={"kind": "fixed", "K": 2}, solver=solver)
    out = tmp_path / "s"
    _expect_exit(["solve", "--config", str(path), "--out", str(out)],
                 cli.EXIT_RUN_FAILED, capsys)
    run = yaml.safe_load((out / "manifest.yaml").read_text())["runs"][0]
    assert run["status"] == status
    if status == "not_converged":
        assert run["converged"] is False and run["sweeps"] == 1
        assert run["final_distance"] > 0


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
@pytest.mark.parametrize("solver, rows", [
    ({"dt": 1e-3, "T": 0.004, "mode": "picard", "picard_iters": 1}, 2),
    ({"dt": 1e-3, "T": 0.004, "lam": 1e8}, 0),
], ids=["not_converged", "blowup"])
def test_cli_converge_failed_run_exits_nonzero(tmp_path, capsys, solver, rows):
    path = _write_cfg(tmp_path, eps=[0.5, 0.4],
                      k_rule={"kind": "fixed", "K": 2}, solver=solver)
    out = tmp_path / "c"
    err = _expect_exit(["converge", "--config", str(path), "--out", str(out)],
                       cli.EXIT_RUN_FAILED, capsys)
    assert "converge.csv" in err["error"]
    lines = (out / "converge.csv").read_text().strip().split("\n")
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    assert len(body) == 1 + rows  # a blown-up limit leaves no distance
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
    F = delta_field(fourier.FrequencyLattice(1), (1, 0, 0))
    write = lambda: fourier.save_field(out / "f.fld", F)
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
