import contextlib
import csv
import io
import json
import os
import tempfile
from dataclasses import fields
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from nikmop import cli, equilibrium
from nikmop.measures import WEIGHT_FAMILIES
from nikmop.mop import decreasing_indices
from nikmop.cli import (
    CHECK_NAMES,
    COMMON_KEYS,
    ConfigError,
    ExperimentConfig,
    KINDS,
    READS,
    RUNNERS,
    default_points,
    main,
)

BASE_SPEC = {"family": "chebyshev2", "interval": [-1, 1]}
UP_SPEC = {"family": "chebyshev1", "interval": [2, 3]}
DOWN_SPEC = {"family": "legendre", "interval": [-3, -2]}
ATOM_BASE_SPEC = dict(BASE_SPEC, mass_points=[[1.5, 0.5]])


def config_dict(kind="mop", **over):
    """A (1,1) config of ``kind``; a small lattice for the kinds that read
    ``max_size``, unless ``index`` takes its place."""
    data = {
        "kind": kind,
        "system1": [BASE_SPEC, UP_SPEC],
        "system2": [BASE_SPEC, DOWN_SPEC],
        "quadrature_nodes": 32,
    }
    if "max_size" in READS.get(kind, ()) and "index" not in over:
        data["max_size"] = 4
    data.update(over)
    return data


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ----- config parsing --------------------------------------------------


# A valid value, other than the default, for every key outside
# COMMON_KEYS on the (1,1) layout of config_dict; ray keys are dotted.
KEY_VALUES = {
    "max_size": 3,
    "index": {"n1": [2, 1], "n2": [1, 1]},
    "shift": [1, 0],
    "points": [[4, 1], [-6, 0]],
    "ratios": {"p1": [0.5, 0.5], "p2": [0.5, 0.5]},
    "panels": 64,
    "ray.level": 0,
    "ray.start_size": 4,
    "ray.steps": 3,
    "ray.shift_position": 1,
}


def with_keys(kind, keys):
    """config_dict of ``kind`` with the KEY_VALUES entries of ``keys``."""
    over = {"precision_bits": 192, "seed": 5}
    for key in keys:
        if key.startswith("ray."):
            over.setdefault("ray", {})[key[len("ray."):]] = KEY_VALUES[key]
        else:
            over[key] = KEY_VALUES[key]
    return config_dict(kind=kind, **over)


def test_key_values_cover_every_key():
    ray_keys = {key for keys in READS.values() for key in keys
                if key.startswith("ray.")}
    top = {f.name for f in fields(ExperimentConfig)} - {"ray"}
    assert set(KEY_VALUES) == top - set(COMMON_KEYS) | ray_keys


@pytest.mark.parametrize(
    "kind, keys",
    [pytest.param(kind, READS[kind], id=kind)
     for kind in KINDS if kind != "hermite_pade"]
    + [pytest.param("hermite_pade", ("index", "points"), id="hermite_pade-index"),
       pytest.param("hermite_pade", ("max_size", "points"),
                    id="hermite_pade-max_size")],
)
def test_from_dict_round_trip(kind, keys):
    # Every key the kind reads, set to a value other than its default.
    cfg = ExperimentConfig.from_dict(with_keys(kind, keys))
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    assert (cfg.precision_bits, cfg.seed) == (192, 5)
    if "index" in keys:
        assert cfg.index == ((2, 1), (1, 1))
    if "points" in keys:
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


def test_check_names_cover_every_kind():
    assert set(CHECK_NAMES) == set(RUNNERS)
    for names in CHECK_NAMES.values():
        assert names


def test_readme_check_table_matches_check_names():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        lines = fh.read().splitlines()

    def names(cell):
        return tuple(name.strip().strip("`") for name in cell.split(","))

    checks, reads = {}, {}
    for line in lines[lines.index("| kind | checks | reads |") + 2:]:
        if not line.startswith("|"):
            break
        kind, check_cell, read_cell = line.strip("|").split("|")
        checks[kind.strip().strip("`")] = names(check_cell)
        reads[kind.strip().strip("`")] = names(read_cell)
    assert list(checks.items()) == list(CHECK_NAMES.items())
    assert list(reads.items()) == list(READS.items())


@pytest.mark.parametrize(
    "kind, key",
    [(kind, key) for kind in KINDS for key in KEY_VALUES
     if key not in READS[kind]],
)
def test_unread_key_exits_two(tmp_path, capsys, kind, key):
    # A key the kind never reads would change nothing but config_hash.
    path = write_config(tmp_path, with_keys(kind, [key]))
    assert main(["--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config error: the {kind} kind does not read {key};" in err
    assert not (tmp_path / "out").exists()


def test_index_and_max_size_together_exit_two(tmp_path, capsys):
    # Given an index, the hermite_pade kind does not read max_size.
    path = write_config(tmp_path, with_keys("hermite_pade", ["index", "max_size"]))
    assert main(["--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "config error: max_size: the hermite_pade kind reads index" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("kind", KINDS)
def test_unread_keys_at_their_defaults_are_accepted(kind):
    # The rule compares values: a key written out at its default is the
    # config without it, with the same config_hash.
    defaults = {"max_size": 6, "points": [], "ratios": {}, "panels": 256,
                "ray": {}, "index": None, "shift": None}
    plain = ExperimentConfig.from_dict(config_dict(kind=kind))
    data = dict(defaults, **config_dict(kind=kind))
    assert ExperimentConfig.from_dict(data).to_dict() == plain.to_dict()


def test_points_rule_binds_only_the_nth_root_hulls():
    # Level 1 tops the first chain, so only its own hull is barred; points
    # off the real axis and on other hulls stay valid.
    ExperimentConfig.from_dict(config_dict(
        kind="nth_root", ray={"level": 1}, points=[0.0, [2.5, 0.1], -2.5],
    ))
    for kind in ("hermite_pade", "ratio"):
        ExperimentConfig.from_dict(config_dict(kind=kind, points=[0.0, 0.3, 2.5]))


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


@pytest.mark.parametrize(
    "raw, message",
    [
        (b'{"kind": "mop", ', "byte offset"),
        # Not UTF-8, and nesting deeper than the parser's recursion limit.
        (b'{"kind": "\xff"}', "invalid JSON: 'utf-8' codec can't decode"),
        (b"[" * 2000 + b"]" * 2000, "invalid JSON: maximum recursion depth"),
    ],
    ids=["truncated", "not_utf8", "deep"],
)
def test_main_invalid_json(tmp_path, capsys, raw, message):
    path = tmp_path / "broken.json"
    path.write_bytes(raw)
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_main_out_naming_a_file_exits_two_before_the_run(tmp_path, monkeypatch, capsys):
    # The output directory is made before any runner starts.
    monkeypatch.setattr(cli, "RUNNERS", {})
    taken = tmp_path / "taken"
    taken.write_text("")
    path = write_config(tmp_path, config_dict())
    assert main(["--config", path, "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert f"cannot create the output directory {str(taken)!r}" in err
    assert "Traceback" not in err
    assert taken.read_text() == ""


@pytest.mark.parametrize(
    "blocked, make",
    [("summary.json", os.mkdir), ("metrics", lambda p: open(p, "w").close())],
    ids=["summary_is_a_directory", "metrics_is_a_file"],
)
def test_main_blocked_output_path_exits_two(tmp_path, capsys, blocked, make):
    # The run completes, then writing its outputs fails on the path.
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    make(str(out_dir / blocked))
    path = write_config(tmp_path, config_dict(system2=[BASE_SPEC], max_size=1))
    assert main(["--config", path, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert str(out_dir / blocked) in err
    assert "Traceback" not in err


def test_main_writes_to_nikmop_out_by_default(tmp_path, monkeypatch):
    # --out is the only way to name the output directory.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("NIKMOP_OUT", str(tmp_path / "ignored"))
    path = write_config(tmp_path, config_dict(system2=[BASE_SPEC], max_size=1))
    assert main(["--config", path]) == 0
    assert sorted(os.listdir(tmp_path)) == ["config.json", "nikmop_out"]
    assert (tmp_path / "nikmop_out" / "summary.json").exists()


def test_main_unknown_key_rejected(tmp_path, capsys):
    path = write_config(tmp_path, config_dict(bogus=1))
    assert main(["--config", path]) == 2
    assert "unknown keys: bogus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "systems, index",
    [
        # |n2| + 1 != |n1|: a config error, not a failed check.
        pytest.param(([BASE_SPEC], [BASE_SPEC]), {"n1": [3], "n2": [3]},
                     id="sizes"),
        # Entries are JSON integers, never rounded, truncated or parsed.
        pytest.param(None, {"n1": [1.7, 1.2], "n2": [1, 0]}, id="floats"),
        pytest.param(None, {"n1": [True, True], "n2": [True, False]},
                     id="bools"),
        pytest.param(None, {"n1": ["1", "1"], "n2": ["1", "0"]},
                     id="strings"),
    ],
)
def test_main_bad_index_exits_two(tmp_path, capsys, systems, index):
    data = config_dict(kind="hermite_pade", index=index)
    if systems is not None:
        data["system1"], data["system2"] = systems
    path = write_config(tmp_path, data)
    assert main(["--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: index" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("data", [None, 5])
def test_main_config_not_an_object_exits_two(tmp_path, capsys, data):
    path = write_config(tmp_path, data)
    assert main(["--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config error: config must be a JSON object, got {data!r}" in err
    assert not (tmp_path / "out").exists()


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
        # Stabilization compares two successive movements: three samples.
        ({"kind": "ratio", "ray": {"steps": 2}}, "ray.steps must be an integer >= 3"),
        (
            {"kind": "ratio", "ray": {"start_size": -3}},
            "ray.start_size must be a positive multiple of 2",
        ),
        (
            {"kind": "ratio", "ray": {"shift_position": -4}},
            "ray.shift_position must be an integer >= 0",
        ),
        # The nth_root samples come from ray.steps alone.
        ({"kind": "nth_root", "ray": {"positions": [0, 2]}},
         "unknown keys: ray.positions"),
        ({"kind": "equilibrium", "seed": -3}, "seed must be an integer >= 0"),
        ({"kind": "equilibrium", "seed": "x"}, "seed must be an integer >= 0"),
        ({"kind": "equilibrium", "seed": 1.5}, "seed must be an integer >= 0"),
        ({"precision_bits": True}, "precision_bits must be a positive integer"),
        ({"quadrature_nodes": True}, "quadrature_nodes must be a positive integer"),
        ({"max_size": True}, "max_size must be a positive integer"),
        ({"kind": "equilibrium", "panels": True}, "panels must be a positive integer"),
        ({"kind": "biortho", "n_max": 6}, "unknown keys: n_max"),
        ({"precision_bits": 4}, "precision_bits must be at least 8"),
        # A ray key that is present needs a value; null is not "absent".
        ({"kind": "ratio", "ray": {"level": None}}, "ray.level must be an integer"),
        ({"kind": "ratio", "ray": {"steps": None}}, "ray.steps must be an integer"),
        (
            {"kind": "ratio", "ray": {"shift_position": None}},
            "ray.shift_position must be an integer",
        ),
        # Malformed shapes name the offending key.
        ({"system1": 5}, "system1 must be a list of weight specs, got 5"),
        ({"system1": [5]}, "system1[0]: weight spec must be an object, got 5"),
        ({"index": 5}, "index must be an object, got 5"),
        ({"index": {"n1": [2, 1]}}, "missing required key: index.n2"),
        ({"points": 5}, "points must be a list, got 5"),
        # json reads NaN, Infinity and 1e400 as floats that are not
        # finite, and an int past the float range overflows one.
        ({"kind": "nth_root", "points": [float("nan")]}, "points[0] must be a number"),
        ({"kind": "nth_root", "points": [float("inf")]}, "points[0] must be a number"),
        ({"kind": "nth_root", "points": [[float("nan"), 1]]},
         "points[0] must be a number"),
        ({"kind": "nth_root", "points": [10**400]}, "points[0] must be a number"),
        # The nth_root limit of ray level j does not hold on the closed
        # hulls of levels j and j + 1.
        ({"kind": "nth_root", "points": [[3.5, 1.0], 0.3]},
         "points[1] = 0.3 lies on the hull [-1.0, 1.0] of level 0"),
        ({"kind": "nth_root", "points": [2.5]},
         "points[0] = 2.5 lies on the hull [2.0, 3.0] of level 1"),
        ({"kind": "nth_root", "points": [[-1, 0]]},
         "points[0] = -1.0 lies on the hull [-1.0, 1.0] of level 0"),
        ({"kind": "nth_root", "ray": {"level": -1}, "points": [-2]},
         "points[0] = -2.0 lies on the hull [-3.0, -2.0] of level -1"),
        ({"kind": "nth_root", "ray": {"level": -1}, "points": [0.5]},
         "points[0] = 0.5 lies on the hull [-1.0, 1.0] of level 0"),
        ({"kind": "nth_root", "points": [1.25],
          "system1": [ATOM_BASE_SPEC, UP_SPEC],
          "system2": [ATOM_BASE_SPEC, DOWN_SPEC]},
         "points[0] = 1.25 lies on the hull [-1.0, 1.5] of level 0"),
        ({"kind": "nth_root", "ray": {"steps": 1}}, "ray.steps must be an integer >= 2"),
        # --out alone names the output directory.
        ({"output_dir": "somewhere"}, "unknown keys: output_dir"),
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
    "over, message",
    [
        # The check thresholds are constants of the program, not keys.
        ({"tolerances": {"residual": 1e-9}}, "unknown keys: tolerances"),
        ({"hex_floats": True}, "unknown keys: hex_floats"),
        ({"ratios": {"p1": [10**400, 0.5], "p2": [0.5, 0.5]}},
         "ratios.p1 must be 2 numbers"),
        ({"ratios": {"p1": [float("nan"), 0.5], "p2": [0.5, 0.5]}},
         "ratios.p1 must be 2 numbers"),
        ({"ratios": {"p1": [0.5, 0.5], "p2": [0.5, float("inf")]}},
         "ratios.p2 must be 2 numbers"),
        ({"ratios": {"p1": [0.5, True], "p2": [0.5, 0.5]}},
         "ratios.p1 must be 2 numbers"),
        ({"ratios": {"p1": [0.5, 0.5], "p2": ["0.5", 0.5]}},
         "ratios.p2 must be 2 numbers"),
        ({"ratios": {"p1": 0.5, "p2": [0.5, 0.5]}}, "ratios.p1 must be 2 numbers"),
        ({"ratios": []}, "ratios must be an object"),
        ({"ratios": ""}, "ratios must be an object"),
        ({"ray": "ab"}, "ray must be an object"),
    ],
)
def test_main_bad_tolerances_ratios_or_ray_exit_two(tmp_path, capsys, over, message):
    path = write_config(tmp_path, config_dict(kind="equilibrium", **over))
    assert main(["--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "upper, message",
    [
        ({"interval": {"family": None}}, "interval must be (a, b)"),
        ({"interval": [2, "x"]}, "interval must be (a, b)"),
        ({"interval": [2, float("nan")]}, "interval must be (a, b)"),
        ({"alpha": []}, "alpha and beta must be numbers"),
        ({"mass_points": [[4, "x"]]}, "mass point must be"),
        ({"interval": [2, float("inf")]}, "spec numbers must be finite"),
        ({"interval": [2, "1e400"]}, "spec numbers must be finite"),
        ({"mass_points": [[float("inf"), 1]]}, "spec numbers must be finite"),
        ({"mass_points": [[4, float("inf")]]}, "spec numbers must be finite"),
        ({"interval": [-(10**400), 3]}, "supports of consecutive generators"),
        ({"mass_points": 5}, "system1[1]: mass_points must be a list of"),
        # Keys a family never reads, and signs that equal +-1 but hash
        # apart from it, would only move the config hash.
        ({"alpha": 7, "beta": 3}, "system1[1]: alpha is read only by the jacobi"),
        ({"beta": 3}, "system1[1]: beta is read only by the jacobi"),
        ({"family": "legendre", "alpha": 0.5},
         "alpha is read only by the jacobi family, got alpha=0.5 on 'legendre'"),
        ({"sign": True}, "system1[1]: sign must be the int +1 or -1, got True"),
        ({"sign": -1.0}, "sign must be the int +1 or -1, got -1.0"),
    ],
)
def test_main_bad_spec_number_exits_two(tmp_path, capsys, upper, message):
    data = config_dict(system1=[BASE_SPEC, {**UP_SPEC, **upper}])
    path = write_config(tmp_path, data)
    assert main(["--config", path, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


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


def test_equilibrium_outputs_ignore_the_gauss_rule_settings(tmp_path):
    # Only config_hash may differ between a coarse and a fine pair setting.
    # String and number atom locations mix.
    base = dict(BASE_SPEC, mass_points=[["1.5", 0.5], [-1.7, 0.2]])
    runs = []
    for bits, nodes in ((64, 8), (512, 128)):
        data = config_dict(kind="equilibrium", panels=16,
                           precision_bits=bits, quadrature_nodes=nodes,
                           system1=[base, UP_SPEC], system2=[base, DOWN_SPEC])
        out_dir = tmp_path / f"out{bits}"
        path = write_config(tmp_path, data, name=f"config{bits}.json")
        assert main(["--config", path, "--out", str(out_dir)]) == 0
        summary = (out_dir / "summary.json").read_bytes()
        masses = (out_dir / "metrics" / "masses.csv").read_bytes()
        runs.append((json.loads(summary)["config_hash"], summary, masses))
    (hash1, summary1, masses1), (hash2, summary2, masses2) = runs
    assert hash1 != hash2
    assert summary1.replace(hash1.encode(), hash2.encode()) == summary2
    assert masses1 == masses2


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
    # 32 bits cannot resolve the moment systems of the lattice to size 6,
    # so normality fails: a failed check, not a bad config.
    data = config_dict(precision_bits=32, quadrature_nodes=16, max_size=6)
    path = write_config(tmp_path, data)
    out_dir = tmp_path / "out"
    assert main(["--config", path, "--out", str(out_dir)]) == 1
    printed = capsys.readouterr().out
    assert "[FAIL] mop:normality" in printed
    assert "[FAIL] mop:full_degrees" in printed
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["all_passed"] is False


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


def test_coincident_zeros_exit_three(tmp_path, monkeypatch, capsys):
    # Every level's zeros start at 1, so an index and its shift share a
    # zero: interlacing cannot be decided, and that is a numeric failure.
    extract = cli.extract_cached

    def tied(solution, j):
        count = len(extract(solution, j).zeros)
        return SimpleNamespace(zeros=tuple(mp.mpf(1 + k) for k in range(count)))

    monkeypatch.setattr(cli, "extract_cached", tied)
    path = write_config(tmp_path, config_dict(kind="diagnostics", max_size=5))
    out_dir = tmp_path / "out"
    assert main(["--config", path, "--out", str(out_dir)]) == 3
    assert "numeric failure: InterlacingIndeterminate" in capsys.readouterr().err
    record = json.loads((out_dir / "error.json").read_text())
    assert record["error"] == "InterlacingIndeterminate"


SMALL_KIND_SETTINGS = {
    "mop": {"max_size": 2},
    "diagnostics": {"max_size": 3},
    "equilibrium": {"panels": 16},
    "nth_root": {"panels": 16, "ray": {"steps": 2}},
    "ratio": {"ray": {"steps": 3}},
    "hermite_pade": {"max_size": 3},
    "biortho": {"max_size": 2},
}


@pytest.mark.parametrize("kind", ["equilibrium", "nth_root"])
def test_residual_above_the_bound_exits_three(tmp_path, monkeypatch, capsys, kind):
    # Both kinds that solve the equilibrium problem stop on the solve's
    # own residual verdict.
    monkeypatch.setattr(equilibrium, "RESIDUAL_BOUND", 1e-18)
    data = config_dict(kind=kind, precision_bits=128, quadrature_nodes=16,
                       **SMALL_KIND_SETTINGS[kind])
    out_dir = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, data),
                 "--out", str(out_dir)]) == 3
    assert "numeric failure: EquilibriumError" in capsys.readouterr().err
    record = json.loads((out_dir / "error.json").read_text())
    assert record["error"] == "EquilibriumError"
    assert "above the bound" in record["message"]
    assert not (out_dir / "summary.json").exists()


@pytest.mark.parametrize("kind", KINDS)
def test_each_kind_builds_only_what_it_reads(tmp_path, monkeypatch, kind):
    # The equilibrium problem comes from the specs alone; every other kind
    # builds its Gauss-rule pair exactly once.
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "build_pair", counting("pair", cli.build_pair))
    monkeypatch.setattr(
        cli, "build_gauss_rule", counting("rule", cli.build_gauss_rule)
    )
    data = config_dict(kind=kind, precision_bits=128, quadrature_nodes=16,
                       **SMALL_KIND_SETTINGS[kind])
    assert main(["--config", write_config(tmp_path, data),
                 "--out", str(tmp_path / "out")]) in (0, 1)
    if kind == "equilibrium":
        assert calls == []
    else:
        assert calls == ["pair", "rule", "rule", "rule"]


@pytest.mark.parametrize("kind", KINDS)
def test_each_kind_reports_its_check_names_in_order(tmp_path, capsys, kind):
    # --list-checks, the README table and the benchmark's output check all
    # read CHECK_NAMES, so every kind must report exactly those checks.
    data = config_dict(kind=kind, precision_bits=128, quadrature_nodes=16,
                       **SMALL_KIND_SETTINGS[kind])
    out_dir = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, data),
                 "--out", str(out_dir)]) in (0, 1)
    summary = json.loads((out_dir / "summary.json").read_text())
    assert tuple(c["name"] for c in summary["checks"]) == CHECK_NAMES[kind]
    printed = capsys.readouterr().out.splitlines()
    assert tuple(line.split(":", 1)[1] for line in printed) == CHECK_NAMES[kind]
    if kind == "ratio":
        grid = (out_dir / "metrics" / "boundary_product.csv").read_text()
        rows = list(csv.reader(io.StringIO(grid)))
        assert rows[0] == ["x", "value"] and len(rows[1:]) == 9


def test_lattice_csv_lists_rows_in_lattice_order(tmp_path):
    # --threads is accepted and ignored, so both runs write the same file,
    # one row per index in decreasing_indices order.
    path = write_config(tmp_path, config_dict(max_size=5))
    outs = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"out{threads}"
        assert main(["--config", path, "--out", str(out_dir),
                     "--threads", threads]) == 0
        outs.append((out_dir / "metrics" / "lattice.csv").read_bytes())
    assert outs[0] == outs[1]
    rows = list(csv.reader(io.StringIO(outs[0].decode())))[1:]
    want = [(list(i.n1), list(i.n2)) for i in decreasing_indices(1, 1, 5)]
    assert [(json.loads(r[0]), json.loads(r[1])) for r in rows] == want


# ----- exit-code contract under mutated configs ------------------------

SMALL_CONFIGS = [
    config_dict(kind=kind, precision_bits=64, quadrature_nodes=8, max_size=2)
    for kind in ("mop", "diagnostics")
]

NUMBERS = st.integers(min_value=-3, max_value=4) | st.floats(min_value=-4, max_value=4)
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | NUMBERS
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e300])
    | st.sampled_from(WEIGHT_FAMILIES + ("", "x", "1e400", "-2"))
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["family", "interval", "n1", "x"]),
                      inner, max_size=2),
    max_leaves=4,
)


def paths(node, prefix=()):
    """Every key or index path inside a JSON value."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


@st.composite
def mutated_configs(draw):
    data = json.loads(json.dumps(draw(st.sampled_from(SMALL_CONFIGS))))
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        path = draw(st.sampled_from(list(paths(data)) or [("kind",)]))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["number", "replace", "delete", "add"]))
        if action == "number":
            parent[path[-1]] = draw(NUMBERS)
        elif action == "replace":
            parent[path[-1]] = draw(JSON_VALUES)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            key = draw(st.sampled_from(
                ["extra", "mass_points", "alpha", "points", "ratios"]
            ))
            parent[key] = draw(JSON_VALUES)
        else:
            parent.append(draw(JSON_VALUES))
    return data


# The base hull [0, 2] puts a zero beside a value with a positive binary
# exponent; the scan grid must read that zero as the int 0.
ZERO_ENDPOINT_CONFIG = config_dict(
    kind="diagnostics", precision_bits=64, quadrature_nodes=8, max_size=2,
    system1=[dict(BASE_SPEC, interval=[0, 2]), dict(UP_SPEC, interval=[3, 4])],
    system2=[dict(BASE_SPEC, interval=[0, 2]), dict(DOWN_SPEC, interval=[-2, -1])],
)


# Point parsing runs for every kind, so a NaN point is a bad config even
# where the kind never evaluates it.
NAN_POINT_CONFIG = dict(SMALL_CONFIGS[0], points=[float("nan")])

# A real point on the base hull is a bad config for the nth_root kind.
ON_HULL_POINT_CONFIG = config_dict(
    kind="nth_root", precision_bits=64, quadrature_nodes=8, points=[0.3],
)


@settings(deadline=None, max_examples=25)
@given(data=mutated_configs())
@example(data=ZERO_ENDPOINT_CONFIG)
@example(data=NAN_POINT_CONFIG)
@example(data=ON_HULL_POINT_CONFIG)
def test_exit_code_contract_under_mutated_configs(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        out_dir = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["--config", path, "--out", out_dir])
        assert code in (0, 1, 2, 3), code
        assert "Traceback" not in err.getvalue()
        if data == ZERO_ENDPOINT_CONFIG:
            assert code == 0, err.getvalue()
        if data in (NAN_POINT_CONFIG, ON_HULL_POINT_CONFIG):
            assert code == 2, err.getvalue()
        if code == 1:
            assert os.path.exists(os.path.join(out_dir, "summary.json"))
        if code == 3:
            assert os.path.exists(os.path.join(out_dir, "error.json"))
