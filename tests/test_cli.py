import filecmp
import math
from dataclasses import fields

import pytest

from icnsim import cli, metrics
from icnsim import protocol as P
from icnsim.config import SimulationConfig


def small_config(tmp_path, **overrides):
    base = dict(nodes=6, edges=9, prefixes=3, interests=150, horizon_s=40.0,
                interest_window_s=30.0, warmup_s=5.0, cooldown_start_s=35.0,
                out_dir=str(tmp_path))
    base.update(overrides)
    return SimulationConfig(**base)


# -- parsing ---------------------------------------------------------------

def test_defaults_match_reference_scenario():
    cfg = cli.parse_config([])
    assert (cfg.nodes, cfg.edges, cfg.prefixes) == (10, 30, 15)
    assert cfg.interests == 1000
    assert cfg.mode == P.MODE_SINGLE
    assert cfg.k == 1
    assert cfg.horizon_s == 1000.0
    assert cfg.path_updates_per_s == 5.0
    assert (cfg.warmup_s, cfg.cooldown_start_s) == (50.0, 950.0)


def test_multi_mode_defaults_k_to_3():
    cfg = cli.parse_config(["--mode", "multi"])
    assert cfg.k == 3


def test_explicit_k_wins():
    cfg = cli.parse_config(["--mode", "multi", "--k", "2"])
    assert cfg.k == 2


def test_k_zero_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.parse_config(["--k", "0"])
    assert exc.value.code == 2
    assert "k must be at least 1" in capsys.readouterr().err


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.parse_config(["--frobnicate", "1"])
    assert exc.value.code == 2


def test_unparsable_value_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.parse_config(["--seed", "pi"])
    assert exc.value.code == 2


def test_infeasible_edges_is_usage_error():
    with pytest.raises(SystemExit):
        cli.parse_config(["--nodes", "3", "--edges", "4"])


def test_config_file_and_flag_precedence(tmp_path):
    config_file = tmp_path / "run.conf"
    config_file.write_text(
        "# comment line\n"
        "seed=5\n"
        "mode=multi\n"
        "interests = 250   # inline comment\n"
        "out=results\n"
        "\n")
    cfg = cli.parse_config(["--config", str(config_file)])
    assert (cfg.seed, cfg.mode, cfg.interests, cfg.k) == (5, "multi", 250, 3)
    assert cfg.out_dir == "results"
    overridden = cli.parse_config(["--config", str(config_file), "--seed", "9", "--mode", "single"])
    assert (overridden.seed, overridden.mode, overridden.interests) == (9, "single", 250)


def test_every_config_field_is_a_config_file_key(tmp_path):
    want = dict(seed=7, nodes=12, edges=20, prefixes=4, interests=200, mode="multi", k=2,
                horizon_s=500.0, interest_window_s=400.0, path_updates_per_s=2.5,
                load_window_s=0.5, buffer_packets=8, propagation_delay_s=0.001,
                warmup_s=10.0, cooldown_start_s=450.0, epsilon_mbps=2.0,
                histogram_bin_s=0.05, out_dir=str(tmp_path / "results"))
    assert set(want) == {f.name for f in fields(SimulationConfig)}
    for name, value in want.items():
        assert value != getattr(SimulationConfig(), name)
    config_file = tmp_path / "run.conf"
    config_file.write_text("".join(f"{name}={value}\n" for name, value in want.items()))
    cfg = cli.parse_config(["--config", str(config_file)])
    for name, value in want.items():
        got = getattr(cfg, name)
        assert (type(got), got) == (type(value), value), name


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    config_file = tmp_path / "run.conf"
    for key, value in (("velocity", 9), ("smoothing_window", 5)):
        config_file.write_text(f"{key}={value}\n")
        with pytest.raises(SystemExit):
            cli.parse_config(["--config", str(config_file)])
        assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_bad_config_value_is_usage_error(tmp_path):
    config_file = tmp_path / "run.conf"
    config_file.write_text("seed=fast\n")
    with pytest.raises(SystemExit):
        cli.parse_config(["--config", str(config_file)])


_FLOAT_FIELDS = [f.name for f in fields(SimulationConfig) if f.type == "float"]


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", _FLOAT_FIELDS)
def test_non_finite_float_is_rejected(tmp_path, name, value):
    assert len(_FLOAT_FIELDS) == 9
    cfg = small_config(tmp_path, **{name: value})
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        cfg.validate()


def test_nan_in_config_file_is_usage_error(tmp_path, capsys):
    config_file = tmp_path / "run.conf"
    config_file.write_text("propagation_delay_s=nan\n")
    with pytest.raises(SystemExit) as exc:
        cli.parse_config(["--config", str(config_file)])
    assert exc.value.code == 2
    assert "propagation_delay_s must be a finite number" in capsys.readouterr().err


# -- scenario generation -----------------------------------------------------

def test_scenario_counts_and_window(tmp_path):
    cfg = small_config(tmp_path, interests=400)
    topo, scenario = cli.build_inputs(cfg)
    assert len(scenario) == 400
    assert all(0.0 <= e.time_s < cfg.interest_window_s for e in scenario)
    times = [e.time_s for e in scenario]
    assert times == sorted(times)


def test_consumer_never_anchors_its_prefix(tmp_path):
    cfg = small_config(tmp_path, interests=500)
    topo, scenario = cli.build_inputs(cfg)
    anchors = {p.prefix_id: set(p.anchors) for p in topo.prefixes}
    assert all(e.consumer not in anchors[e.prefix_id] for e in scenario)


def test_same_seed_same_scenario(tmp_path):
    cfg = small_config(tmp_path)
    _, first = cli.build_inputs(cfg)
    _, second = cli.build_inputs(cfg)
    assert first == second


def test_mode_does_not_perturb_inputs(tmp_path):
    single = small_config(tmp_path, mode=P.MODE_SINGLE)
    multi = small_config(tmp_path, mode=P.MODE_MULTI)
    topo_s, scen_s = cli.build_inputs(single)
    topo_m, scen_m = cli.build_inputs(multi)
    assert topo_s == topo_m
    assert scen_s == scen_m


# -- run_single ---------------------------------------------------------------

def test_run_single_writes_four_files(tmp_path):
    summary, paths = cli.run_single(small_config(tmp_path))
    assert [p.name for p in paths] == ["loads.csv", "packets.csv", "summary.csv", "histogram.csv"]
    assert all(p.exists() for p in paths)
    assert summary.delivered_count > 0
    counted = sum(int(line.split(",")[1]) for line in
                  (tmp_path / "histogram.csv").read_text().splitlines()[1:])
    data_rows = [line for line in (tmp_path / "packets.csv").read_text().splitlines()[1:]
                 if line.split(",")[2] == "data" and line.split(",")[9] == "Delivered"]
    assert counted == len(data_rows)


def test_run_single_is_byte_deterministic(tmp_path):
    cli.run_single(small_config(tmp_path / "a"))
    cli.run_single(small_config(tmp_path / "b"))
    for name in ("loads.csv", "packets.csv", "summary.csv", "histogram.csv"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False), name


# -- run_batch ----------------------------------------------------------------

def test_run_batch_rows_and_consistency(tmp_path):
    cfg = small_config(tmp_path, seed=3)
    summaries, path = cli.run_batch(cfg, 2)
    assert len(summaries) == 4
    assert [s.mode for s in summaries] == ["single", "multi", "single", "multi"]
    assert [s.seed for s in summaries] == [3, 3, 4, 4]

    lines = path.read_text().splitlines()
    assert lines[0] == metrics.BATCH_HEADER
    assert len(lines) == 5

    single_again, _ = cli.run_single(small_config(tmp_path / "solo", seed=4, mode=P.MODE_MULTI))
    matching = [s for s in summaries if s.seed == 4 and s.mode == "multi"]
    assert matching[0] == single_again


def test_run_batch_deterministic(tmp_path):
    rows_a, path_a = cli.run_batch(small_config(tmp_path / "a", seed=1), 2)
    rows_b, path_b = cli.run_batch(small_config(tmp_path / "b", seed=1), 2)
    assert rows_a == rows_b
    assert path_a.read_text() == path_b.read_text()


@pytest.mark.parametrize("key, value", [("mode", "multi"), ("k", "5")])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_batch_rejects_mode_and_k(tmp_path, capsys, source, key, value):
    # A batch runs both modes, each with its default k: either setting would be ignored.
    config_file = tmp_path / "run.conf"
    if source == "flag":
        config_file.write_text("")
        args = ["--runs", "1", f"--{key}", value]
    else:
        config_file.write_text(f"runs=1\n{key}={value}\n")
        args = []
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(config_file), "--nodes", "5", "--edges", "6", "--prefixes", "2",
                  "--interests", "10", "--out", str(tmp_path / "out"), *args])
    assert exc.value.code == 2
    assert f"{key} cannot be set for a batch" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_batch_validates_runs(tmp_path):
    with pytest.raises(ValueError):
        cli.run_batch(small_config(tmp_path), 0)


# -- main ----------------------------------------------------------------------

def test_main_single_run_exit_zero(tmp_path, capsys):
    code = cli.main(["--nodes", "5", "--edges", "6", "--prefixes", "2", "--interests", "50",
                     "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "loads.csv" in out and "histogram.csv" in out
    assert (tmp_path / "summary.csv").exists()


def test_main_batch_exit_zero(tmp_path, capsys):
    code = cli.main(["--nodes", "5", "--edges", "6", "--prefixes", "2", "--interests", "50",
                     "--runs", "1", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "batch.csv").exists()
    assert "batch.csv" in capsys.readouterr().out


def test_main_unwritable_out_dir(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code = cli.main(["--nodes", "5", "--edges", "6", "--prefixes", "2", "--interests", "10",
                     "--out", str(blocker / "sub")])
    assert code == 1
    assert "error" in capsys.readouterr().err