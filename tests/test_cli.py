import json

import pytest

from nikmop import cli
from nikmop.cli import (
    CHECK_NAMES,
    ConfigError,
    DEFAULT_TOLERANCES,
    ExperimentConfig,
    KINDS,
    default_points,
    main,
)

BASE_SPEC = {"family": "chebyshev2", "interval": [-1, 1]}
UP_SPEC = {"family": "chebyshev1", "interval": [2, 3]}
DOWN_SPEC = {"family": "legendre", "interval": [-3, -2]}


def config_dict(kind="mop", **over):
    data = {
        "kind": kind,
        "system1": [BASE_SPEC, UP_SPEC],
        "system2": [BASE_SPEC, DOWN_SPEC],
        "quadrature_nodes": 32,
        "max_size": 4,
    }
    data.update(over)
    return data


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ----- config parsing --------------------------------------------------


def test_from_dict_round_trip():
    cfg = ExperimentConfig.from_dict(
        config_dict(
            kind="ratio",
            precision_bits=192,
            index={"n1": [2, 1], "n2": [1, 1]},
            ray={"steps": 3, "level": 0},
            shift=[1, 0],
            points=[[4, 1], [-6, 0]],
            ratios={"p1": [0.5, 0.5], "p2": [0.5, 0.5]},
            panels=64,
            n_max=3,
            seed=5,
            tolerances={"telescoping": 1e-30},
            output_dir="somewhere",
            hex_floats=True,
        )
    )
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    assert cfg.index == ((2, 1), (1, 1))
    assert cfg.points == (complex(4, 1), complex(-6, 0))


def test_from_dict_defaults():
    cfg = ExperimentConfig.from_dict(
        {"kind": "mop", "system1": [BASE_SPEC], "system2": [BASE_SPEC]}
    )
    assert cfg.precision_bits == 256
    assert cfg.quadrature_nodes == 128
    assert cfg.panels == 256
    assert cfg.seed == 0
    assert cfg.points == ()
    assert cfg.index is None


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown keys: bogus"):
        ExperimentConfig.from_dict(config_dict(bogus=1))


def test_unknown_nested_keys():
    with pytest.raises(ConfigError, match=r"unknown keys: ray\.steeps"):
        ExperimentConfig.from_dict(config_dict(ray={"steeps": 4}))
    with pytest.raises(ConfigError, match=r"unknown keys: index\.n3"):
        ExperimentConfig.from_dict(
            config_dict(index={"n1": [1, 1], "n2": [1, 0], "n3": [0]})
        )
    with pytest.raises(ConfigError, match=r"unknown keys: ratios\.p3"):
        ExperimentConfig.from_dict(config_dict(ratios={"p3": [1.0]}))


def test_missing_required_key():
    data = config_dict()
    del data["system2"]
    with pytest.raises(ConfigError, match="missing required key: system2"):
        ExperimentConfig.from_dict(data)


def test_systems_must_share_base():
    data = config_dict(system2=[DOWN_SPEC, UP_SPEC])
    with pytest.raises(ConfigError, match="share their base"):
        ExperimentConfig.from_dict(data)


def test_rejects_nonpositive_sizes():
    with pytest.raises(ConfigError, match="quadrature_nodes"):
        ExperimentConfig.from_dict(config_dict(quadrature_nodes=0))
    with pytest.raises(ConfigError, match="max_size"):
        ExperimentConfig.from_dict(config_dict(max_size=-2))


def test_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="kind must be one of"):
        ExperimentConfig.from_dict(config_dict(kind="frobnicate"))


def test_tolerance_defaults_and_overrides():
    cfg = ExperimentConfig.from_dict(config_dict(kind="ratio"))
    assert cfg.tolerance("telescoping") == 1e-40
    assert cfg.tolerance("boundary_cov") == 0.02
    cfg2 = ExperimentConfig.from_dict(
        config_dict(kind="ratio", tolerances={"telescoping": 1e-30})
    )
    assert cfg2.tolerance("telescoping") == 1e-30
    assert cfg2.tolerance("boundary_cov") == 0.02


def test_check_names_cover_every_kind():
    assert set(CHECK_NAMES) == set(KINDS) == set(DEFAULT_TOLERANCES)
    for names in CHECK_NAMES.values():
        assert names


# ----- deterministic test points ---------------------------------------


def test_default_points_deterministic_and_off_supports(pair11):
    pts = default_points(pair11, seed=0)
    assert pts == default_points(pair11, seed=0)
    assert pts != default_points(pair11, seed=1)
    assert len(default_points(pair11, seed=0, count=3)) == 3
    for p in pts:
        assert p.imag > 0


# ----- entry point ------------------------------------------------------


def test_main_list_checks(capsys):
    assert main(["--list-checks"]) == 0
    out = capsys.readouterr().out
    for kind in KINDS:
        assert f"{kind}:" in out


def test_main_requires_config(capsys):
    assert main([]) == 2
    assert "--config is required" in capsys.readouterr().err


def test_main_missing_config_file(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_main_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "mop", ')
    assert main(["--config", str(path)]) == 2
    assert "byte offset" in capsys.readouterr().err


def test_main_unknown_key_rejected(tmp_path, capsys):
    path = write_config(tmp_path, config_dict(bogus=1))
    assert main(["--config", path]) == 2
    assert "unknown keys: bogus" in capsys.readouterr().err


def test_main_bad_index_exits_two(tmp_path, capsys):
    # |n2| + 1 != |n1|: a config error, not a failed check.
    data = config_dict(
        kind="hermite_pade",
        system1=[BASE_SPEC],
        system2=[BASE_SPEC],
        index={"n1": [3], "n2": [3]},
    )
    path = write_config(tmp_path, data)
    assert main(["--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: index" in err
    assert "Traceback" not in err


def test_main_index_shape_exits_two(tmp_path, capsys):
    data = config_dict(kind="hermite_pade", index={"n1": [2], "n2": [1]})
    path = write_config(tmp_path, data)
    assert main(["--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "one entry per generator" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("point", [[1], [1, 2, 3], "1+2j", [1, "x"], True])
def test_main_malformed_point_exits_two(tmp_path, capsys, point):
    data = config_dict(kind="ratio", points=[[0.5, 2.0], point])
    path = write_config(tmp_path, data)
    assert main(["--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "points[1] must be a number or a pair" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "over, message",
    [
        ({"kind": "diagnostics", "shift": [5, 0]}, "shift must be two integers"),
        ({"kind": "diagnostics", "shift": [0, 1, 0]}, "shift must be two integers"),
        ({"kind": "ratio", "ray": {"level": 7}}, "ray.level must be an integer"),
        ({"kind": "ratio", "ray": {"level": -2}}, "ray.level must be an integer"),
        (
            {"kind": "equilibrium", "ratios": {"p1": [1.0], "p2": [1.0]}},
            "ratios.p1 must be 2 numbers",
        ),
        (
            {"kind": "equilibrium", "ratios": {"p1": [0.2, 0.9], "p2": [0.5, 0.5]}},
            "ratios must be non-increasing",
        ),
        (
            {"kind": "equilibrium", "ratios": {"p1": [0.5, 0.5]}},
            "ratios needs both p1 and p2",
        ),
        ({"kind": "ratio", "ray": {"steps": 0}}, "ray.steps must be an integer >= 2"),
        (
            {"kind": "ratio", "ray": {"start_size": -3}},
            "ray.start_size must be a positive multiple of 2",
        ),
        (
            {"kind": "ratio", "ray": {"shift_position": -4}},
            "ray.shift_position must be an integer >= 0",
        ),
        (
            {"kind": "nth_root", "ray": {"positions": [-1, 2]}},
            "ray.positions must be at least two integers >= 0",
        ),
        ({"kind": "equilibrium", "seed": -3}, "seed must be an integer >= 0"),
        ({"kind": "equilibrium", "seed": "x"}, "seed must be an integer >= 0"),
        ({"kind": "equilibrium", "seed": 1.5}, "seed must be an integer >= 0"),
        ({"precision_bits": True}, "precision_bits must be a positive integer"),
        ({"quadrature_nodes": True}, "quadrature_nodes must be a positive integer"),
        ({"max_size": True}, "max_size must be a positive integer"),
        ({"kind": "equilibrium", "panels": True}, "panels must be a positive integer"),
        ({"kind": "nth_root", "n_max": True}, "n_max must be a positive integer"),
        ({"precision_bits": 4}, "precision_bits must be at least 8"),
    ],
)
def test_main_out_of_range_field_exits_two(tmp_path, capsys, over, message):
    path = write_config(tmp_path, config_dict(**over))
    assert main(["--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "upper",
    [
        {"family": "legendre", "interval": [0.5, 3]},
        {"family": "legendre", "interval": [2, 3], "mass_points": [[0.9, 1.0]]},
        {"family": "legendre", "interval": [1, 3]},
    ],
)
def test_main_overlapping_supports_exit_two(tmp_path, capsys, upper):
    # Hulls are the interval together with the mass points, and touching
    # hulls count as overlapping, as in NikishinSystem.
    path = write_config(tmp_path, config_dict(system1=[BASE_SPEC, upper]))
    assert main(["--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: system1: supports of consecutive generators 0 and 1 overlap" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "upper",
    [
        {"family": "legendre", "interval": ["1.00000000000000000001", 3]},
        {"family": "legendre", "interval": [2, 3],
         "mass_points": [["1.00000000000000000001", 1.0]]},
    ],
)
def test_spec_hulls_compare_exactly(upper):
    # The decimal rounds to 1.0 as a double but lies above the base's right
    # end 1, so the hulls are disjoint and the config is accepted.
    assert float("1.00000000000000000001") == 1.0
    cfg = ExperimentConfig.from_dict(config_dict(system1=[BASE_SPEC, upper]))
    assert len(cfg.system1) == 2


def test_decimal_endpoints_keep_the_measure_precision(tmp_path, capsys):
    # Read as a double the upper interval would start on the base's right
    # end; the measures keep its decimal value, so the supports stay apart.
    upper = {"family": "legendre", "interval": ["1.00000000000000000001", 3]}
    path = write_config(tmp_path, config_dict(system1=[BASE_SPEC, upper]))
    assert main(["--config", path, "--out", str(tmp_path / "out")]) == 0
    assert "[PASS] mop:normality" in capsys.readouterr().out


def test_mop_kind_builds_the_pair_once(tmp_path, monkeypatch):
    calls = []

    def counting_build_pair(config):
        calls.append(config)
        return build_pair(config)

    build_pair = cli.build_pair
    monkeypatch.setattr(cli, "build_pair", counting_build_pair)
    path = write_config(tmp_path, config_dict())
    assert main(["--config", path, "--out", str(tmp_path / "out"), "--threads", "1"]) == 0
    assert len(calls) == 1


def test_end_to_end_mop_run(tmp_path, capsys):
    path = write_config(tmp_path, config_dict())
    out_dir = tmp_path / "out"
    assert main(["--config", path, "--out", str(out_dir)]) == 0
    printed = capsys.readouterr().out
    assert "[PASS] mop:normality" in printed
    assert "[PASS] mop:full_degrees" in printed

    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["all_passed"] is True
    assert tuple(c["name"] for c in summary["checks"]) == CHECK_NAMES["mop"]
    assert len(summary["config_hash"]) == 64

    meta = json.loads((out_dir / "run_meta.json").read_text())
    assert "version" in meta and "elapsed_seconds" in meta


def test_equilibrium_passes_go_to_run_meta_only(tmp_path):
    path = write_config(tmp_path, config_dict(kind="equilibrium", panels=32))
    out_dir = tmp_path / "out"
    assert main(["--config", path, "--out", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert "iterations" not in summary and "residual" in summary
    meta = json.loads((out_dir / "run_meta.json").read_text())
    assert meta["iterations"] >= 1 and meta["restart_iterations"] >= 1


def test_summary_is_byte_deterministic(tmp_path):
    path = write_config(tmp_path, config_dict())
    first = tmp_path / "out1"
    second = tmp_path / "out2"
    assert main(["--config", path, "--out", str(first)]) == 0
    assert main(["--config", path, "--out", str(second)]) == 0
    assert (first / "summary.json").read_bytes() == (
        second / "summary.json"
    ).read_bytes()


def test_failed_check_exits_one(tmp_path, capsys):
    data = config_dict(
        kind="biortho",
        n_max=2,
        tolerances={"defect": 1e-300},
        hex_floats=True,
    )
    path = write_config(tmp_path, data)
    out_dir = tmp_path / "out"
    assert main(["--config", path, "--out", str(out_dir)]) == 1
    assert "[FAIL] biortho:biorthogonality" in capsys.readouterr().out
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["all_passed"] is False
    assert (out_dir / "metrics" / "check_values_hex.csv").exists()


def test_numeric_failure_exits_three(tmp_path, capsys):
    # A single-node upper rule puts its lone support point at 2.5;
    # evaluating there divides by zero inside the transform sums.
    data = config_dict(
        kind="hermite_pade",
        quadrature_nodes=1,
        index={"n1": [1, 1], "n2": [1, 0]},
        points=[[2.5, 0]],
    )
    path = write_config(tmp_path, data)
    out_dir = tmp_path / "out"
    assert main(["--config", path, "--out", str(out_dir)]) == 3
    assert "numeric failure" in capsys.readouterr().err
    record = json.loads((out_dir / "error.json").read_text())
    assert record["error"] == "ZeroDivisionError"
    assert "message" in record
