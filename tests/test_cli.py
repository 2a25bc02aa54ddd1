"""Command-line interface tests: config handling, commands, exit codes."""

import importlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from inandout import bodies, cli, planner
from inandout.cli import (
    EXIT_BAD_CONFIG,
    EXIT_CHECK_FAILED,
    EXIT_IO,
    EXIT_OK,
    ConfigError,
    build_body,
    dumps_canonical,
    main,
    parse_config,
)

ANNULUS_BODY = {
    "kind": "exclusion",
    "outer": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
    "hole": {"kind": "ball", "center": [0.0, 0.0], "radius": 0.5},
    "volume": 0.75 * math.pi,
}

ANNULUS_PLAN = {"q": 2, "eps": 0.2, "M": 1, "C_PI": 4,
                "alpha": "auto", "beta": "auto", "n": "auto"}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# -------------------------------------------------------- serialization


def test_dumps_canonical_formats():
    assert dumps_canonical(0.1) == "0.10000000000000001"
    assert dumps_canonical(7) == "7"
    assert dumps_canonical(True) == "true"
    assert dumps_canonical(None) == "null"
    assert dumps_canonical([1.5, "a"]) == '[1.5, "a"]'
    assert dumps_canonical({"k": np.float64(2.0)}) == '{"k": 2}'
    with pytest.raises(ValueError):
        dumps_canonical(float("nan"))
    # round trip through the standard parser
    doc = {"a": [0.1, 2, None], "b": {"c": "x"}}
    assert json.loads(dumps_canonical(doc)) == doc


# --------------------------------------------------------------- config


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="bodyy"):
        parse_config({"bodyy": {}})
    with pytest.raises(ConfigError, match="config.run"):
        parse_config({"run": {"chains": 3}})
    with pytest.raises(ConfigError, match="C_PI"):
        parse_config({"plan": {"q": 2, "eps": 0.1, "M": 1}})
    with pytest.raises(ConfigError, match="mode"):
        parse_config({"mode": "explore"})


@pytest.mark.parametrize("section,key,value", [
    ("run", "seed", True),
    ("run", "n_chains", True),
    ("run", "t_cap", True),
    ("run", "n_cap", True),
    ("diagnose", "seed", True),
    ("diagnose", "n_mc", "abc"),
    ("diagnose", "n_mc", True),
    ("diagnose", "n_mc", 0),
    ("diagnose", "resolution", True),
    ("diagnose", "resolution", 1),
    ("diagnose", "n_cells", True),
    ("diagnose", "n_cells", 1),
    ("diagnose", "r_grid", "0.5"),
    ("diagnose", "r_grid", [0.5, 0.0]),
    ("diagnose", "r_grid", [True]),
    ("diagnose", "t_grid", [-0.1]),
    ("diagnose", "h_override", True),
    ("plan", "q", "abc"),
    ("plan", "eps", [1]),
    ("plan", "M", None),
    ("plan", "alpha", "x"),
    # seeds key 64-bit generators: outside [0, 2^64) they would alias
    ("run", "seed", -1),
    ("run", "seed", 2**64),
    ("diagnose", "seed", -1),
    # more than 100 would share the streams of the draw and grid_tv
    ("diagnose", "r_grid", [0.5] * 101),
    ("diagnose", "t_grid", [0.5] * 101),
])
def test_bad_settings_exit_2(tmp_path, capsys, section, key, value):
    doc = {"body": ANNULUS_BODY, "plan": ANNULUS_PLAN}
    doc[section] = {**doc.get(section, {}), key: value}
    cfg = write_config(tmp_path, doc)
    command = "sample" if section == "run" else "diagnose"
    out = str(tmp_path / ("run" if section == "run" else "report.json"))
    assert main([command, "--config", cfg, "--out", out]) == EXIT_BAD_CONFIG
    assert f"config.{section}.{key}" in capsys.readouterr().err


def test_grids_of_100_entries_are_accepted():
    cfg = parse_config({"diagnose": {"r_grid": [0.5] * 100, "t_grid": [0.0] * 100}})
    assert cfg.diagnose_node["r_grid"] == [0.5] * 100
    assert cfg.diagnose_node["t_grid"] == [0.0] * 100


@pytest.mark.parametrize("command", ["sample", "diagnose"])
def test_bad_seed_flag_exit_2(tmp_path, capsys, command):
    cfg = write_config(tmp_path, {"body": ANNULUS_BODY, "plan": ANNULUS_PLAN})
    out = str(tmp_path / ("run" if command == "sample" else "report.json"))
    assert main([command, "--config", cfg, "--out", out, "--seed", "-1"]) \
        == EXIT_BAD_CONFIG
    assert "--seed" in capsys.readouterr().err


def test_settings_defaults_filled_once():
    cfg = parse_config({})
    assert cfg.run_node == {"n_chains": 1, "seed": 0, "t_cap": None, "n_cap": None}
    assert cfg.diagnose_node == {
        "seed": 0, "n_mc": 20_000, "resolution": 400,
        "n_cells": 16, "r_grid": [0.25, 0.5, 1.0], "t_grid": [0.1, 0.5, 1.0],
        "h_override": None}


@pytest.mark.parametrize("n,with_body", [(2.9, False), (2.9, True), (3, True)])
def test_plan_dimension_is_not_truncated(tmp_path, capsys, n, with_body):
    doc = {"plan": {**ANNULUS_PLAN, "alpha": 1.0, "beta": 1.0, "n": n}}
    if with_body:
        doc["body"] = ANNULUS_BODY
    cfg = write_config(tmp_path, doc)
    assert main(["plan", "--config", cfg]) == EXIT_BAD_CONFIG
    assert "config.plan" in capsys.readouterr().err


def test_build_body_constructors():
    ball = build_body({"kind": "ball", "center": [0, 0], "radius": 2.0})
    assert bool(ball.membership([1.0, 1.0]))
    box = build_body({"kind": "box", "lo": [0, 0], "hi": [2, 1]})
    assert not bool(box.membership([3.0, 0.5]))
    tri = build_body({
        "kind": "polytope",
        "A": [[-1, 0], [0, -1], [1, 1]],
        "b": [0, 0, 1],
        "inner_center": [0.25, 0.25],
        "inner_radius": 0.2,
    })
    assert bool(tri.membership([0.1, 0.1]))
    star = build_body({
        "kind": "star",
        "parts": [
            {"kind": "box", "lo": [-2, -0.5], "hi": [2, 0.5]},
            {"kind": "box", "lo": [-0.5, -2], "hi": [0.5, 2]},
        ],
        "core_radius": 0.5,
    })
    assert star.growth.alpha == 1.0
    ann = build_body(ANNULUS_BODY)
    assert ann.growth.alpha == pytest.approx(4.0 / 3.0)
    assert ann.growth.beta == pytest.approx(1.0)


def test_build_body_error_paths():
    with pytest.raises(ConfigError, match="kind"):
        build_body({"kind": "torus"})
    with pytest.raises(ConfigError, match="kind"):
        build_body({"kind": ["ball"]})
    with pytest.raises(ConfigError, match=r"body\.parts\[1\]"):
        build_body({
            "kind": "union",
            "parts": [{"kind": "ball", "center": [0, 0], "radius": 1},
                      {"kind": "ball", "center": [0, 0], "radius": -1}],
            "volume": 3.0,
        })
    with pytest.raises(ConfigError, match="body.outer"):
        build_body({"kind": "exclusion",
                    "outer": {"kind": "box", "lo": [0], "hi": []},
                    "hole": {"kind": "ball", "center": [0, 0], "radius": 0.1},
                    "volume": 1.0})


def test_plan_section_is_checked_when_read():
    with pytest.raises(ConfigError, match=r"config\.plan\.q"):
        parse_config({"plan": {**ANNULUS_PLAN, "q": "2"}})
    with pytest.raises(ConfigError, match=r"config\.plan\.n"):
        parse_config({"plan": {**ANNULUS_PLAN, "n": math.inf}})
    cfg = parse_config({"plan": {"q": 2, "eps": 0.2, "M": 1, "C_PI": 4}})
    assert cfg.plan_node == ANNULUS_PLAN


TRIANGLE = {"kind": "polytope", "A": [[-1, 0], [0, -1], [1, 1]], "b": [0, 0, 1],
            "inner_center": [0.25, 0.25], "inner_radius": 0.2}


def annulus_with(**outer):
    return {**ANNULUS_BODY, "outer": {**ANNULUS_BODY["outer"], **outer}}


@pytest.mark.parametrize("body,message", [
    (annulus_with(radius=True), "body.outer.radius: need a finite number"),
    (annulus_with(center=[False, False]), "body.outer.center[0]: need a finite number"),
    ({"kind": "box", "lo": [-math.inf, 0.0], "hi": [1.0, 1.0]},
     "body.lo[0]: need a finite number"),
    ({**ANNULUS_BODY, "volume": math.nan}, "body.volume: need a finite number"),
    ({**TRIANGLE, "A": [[-1, 0], [0, "-1"], [1, 1]]}, "body.A[1][1]: need a finite"),
    ({"kind": "union", "parts": [TRIANGLE, {**TRIANGLE, "b": None}], "volume": 0.5},
     "body.parts[1].b: need a list"),
    # finite corners whose difference overflows
    ({"kind": "box", "lo": [-1e308, 0.0], "hi": [1e308, 1.0]},
     "body: bbox must have a positive, finite extent"),
    # a finite radius whose ball volume overflows
    ({"kind": "ball", "center": [0, 0], "radius": 1e300},
     "body: exact volume must be positive and finite, got inf"),
], ids=["bool-radius", "bool-center", "inf-lo", "nan-volume", "string-in-A",
        "null-b-of-a-part", "overflowing-box", "overflowing-ball"])
def test_bad_body_values_exit_2(tmp_path, capsys, body, message):
    cfg = write_config(tmp_path, {"body": body, "plan": ANNULUS_PLAN,
                                  "run": {"t_cap": 5, "n_cap": 10}})
    out = tmp_path / "run"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert message in err
    assert not out.exists()


def test_union_whose_part_volumes_overflow_exit_2(tmp_path):
    # two finite boxes of volume 1e308 each: the union rejects the sum
    # itself, with no NumPy overflow warning and no misleading beta error
    body = {"kind": "union", "volume": 1e308, "parts": [
        {"kind": "box", "lo": [0.0, 0.0], "hi": [1e200, 1e108]},
        {"kind": "box", "lo": [0.0, 1e108], "hi": [1e200, 2e108]}]}
    cfg = write_config(tmp_path, {"body": body, "plan": ANNULUS_PLAN})
    proc = subprocess.run(
        [sys.executable, "-m", "inandout.cli", "plan", "--config", cfg],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_BAD_CONFIG
    assert "sum of the part volumes" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


# ----------------------------------------------------------------- plan


def test_plan_command_auto_certificate(tmp_path, capsys):
    cfg = write_config(tmp_path, {"body": ANNULUS_BODY, "plan": ANNULUS_PLAN})
    out_file = tmp_path / "plan.json"
    code = main(["plan", "--config", cfg, "--out", str(out_file)])
    printed = capsys.readouterr().out
    assert code == EXIT_OK
    doc = json.loads(printed)
    assert doc["inputs"]["alpha"] == pytest.approx(4.0 / 3.0)
    assert doc["inputs"]["beta"] == 1.0
    assert doc["inputs"]["n"] == 2
    assert doc["plan"]["T"] == 37519
    assert doc["consistency"]["ok"] is True
    assert doc["consistency"]["violations"] == []
    assert out_file.read_text(encoding="utf-8") == printed


def test_plan_command_explicit_numbers_no_body(tmp_path):
    cfg = write_config(tmp_path, {
        "plan": {"q": 2, "eps": 0.2, "M": 1, "C_PI": 1,
                 "alpha": 1.0, "beta": 1.0, "n": 2},
    })
    assert main(["plan", "--config", cfg]) == EXIT_OK


def test_plan_command_missing_plan_node(tmp_path, capsys):
    cfg = write_config(tmp_path, {"body": ANNULUS_BODY})
    assert main(["plan", "--config", cfg]) == EXIT_BAD_CONFIG
    assert "config.plan" in capsys.readouterr().err


def test_plan_command_auto_without_certificate(tmp_path):
    cfg = write_config(tmp_path, {
        "plan": {"q": 2, "eps": 0.2, "M": 1, "C_PI": 1},
    })
    assert main(["plan", "--config", cfg]) == EXIT_BAD_CONFIG


def test_plan_command_desk_scale_overflow(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "plan": {"q": 8, "eps": 0.01, "M": 1e6, "C_PI": 1e4,
                 "alpha": 1e6, "beta": 50.0, "n": 50},
    })
    assert main(["plan", "--config", cfg]) == EXIT_CHECK_FAILED
    assert "desk-scale" in capsys.readouterr().err


def test_plan_command_on_a_400d_ball(tmp_path, capsys):
    # math.gamma overflows in the ball's volume from 342-D on; the volume
    # (8.81e244) and the plan are in range
    ball = {"kind": "ball", "center": [0.0] * 400, "radius": 20.0}
    cfg = write_config(tmp_path, {"body": ball, "plan": ANNULUS_PLAN})
    assert main(["plan", "--config", cfg]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["inputs"]["n"] == 400
    assert doc["plan"]["T"] == 394_913_199


def test_diagnose_command_on_a_400d_ball(tmp_path, capsys):
    # the radial quadrature's sphere area used to take unit_ball_volume(400),
    # whose math.gamma overflows, and rho ** 399 overflows at radius 20
    ball = {"kind": "ball", "center": [0.0] * 400, "radius": 20.0}
    cfg = write_config(tmp_path, {
        "body": ball, "plan": ANNULUS_PLAN,
        "diagnose": {"seed": 1, "n_mc": 100, "r_grid": [0.25], "t_grid": [0.1]}})
    out = tmp_path / "report.json"
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    checks = {c["name"]: c for c in json.loads(out.read_text(encoding="utf-8"))["checks"]}
    assert [checks[name]["status"] for name in checks] == [
        "ran", "ran", "ran", "skipped", "skipped"]
    failure, trials = checks["stationary_failure"], checks["expected_trials"]
    assert 0.0 < failure["empirical"] <= failure["theoretical_bound"]
    assert 1.0 <= trials["empirical"] <= trials["theoretical_bound"]


# --------------------------------------------------------------- sample


def sample_config(**run):
    return {"body": ANNULUS_BODY, "plan": ANNULUS_PLAN,
            "run": {"n_chains": 5, "seed": 11, "t_cap": 50, "n_cap": 500, **run}}


def test_sample_command_on_a_40d_ball(tmp_path, time_limit):
    # bbox rejection hits the 40-D ball with probability 3.3e-21 per draw,
    # so the warm starts ran without bound; the radial draw takes 40 normals
    ball = {"kind": "ball", "center": [0.0] * 40, "radius": 1.0}
    cfg = write_config(tmp_path, {
        "body": ball, "plan": ANNULUS_PLAN,
        "run": {"n_chains": 2, "seed": 42, "t_cap": 5, "n_cap": 1000}})
    out = tmp_path / "out"
    with time_limit(10):
        assert main(["sample", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "samples.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    for line in lines:
        rec = json.loads(line)
        if rec["outcome"] == "success":
            assert math.fsum(x * x for x in rec["x"]) <= 1.0


def test_sample_command_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, sample_config())
    out = tmp_path / "run1"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "samples.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5
    for c, line in enumerate(lines):
        rec = json.loads(line)
        assert set(rec) == {"chain", "outcome", "x", "total_trials", "failed_at"}
        assert rec["chain"] == c
        if rec["outcome"] == "success":
            assert len(rec["x"]) == 2
            assert rec["failed_at"] is None
            r = math.hypot(*rec["x"])
            assert 0.5 <= r <= 1.0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["n_chains"] == 5
    assert summary["seed"] == 11
    assert summary["plan"]["T"] == 50          # t_cap applied
    assert summary["plan"]["N"] == 500         # n_cap applied
    assert summary["all_failed"] is False
    stdout_doc = json.loads(capsys.readouterr().out)
    assert stdout_doc["n_chains"] == 5
    assert stdout_doc["wall_time_s"] >= 0.0


def test_sample_command_reruns_byte_identical(tmp_path):
    cfg = write_config(tmp_path, sample_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sample", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["sample", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    assert (out1 / "samples.jsonl").read_bytes() == (out2 / "samples.jsonl").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_sample_command_overrides_change_output(tmp_path):
    cfg = write_config(tmp_path, sample_config())
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    main(["sample", "--config", cfg, "--out", str(out1)])
    main(["sample", "--config", cfg, "--out", str(out2), "--seed", "99"])
    main(["sample", "--config", cfg, "--out", str(out3), "--chains", "2"])
    assert (out1 / "samples.jsonl").read_bytes() != (out2 / "samples.jsonl").read_bytes()
    assert len((out3 / "samples.jsonl").read_text(encoding="utf-8").splitlines()) == 2


def test_sample_command_accepts_plan_document(tmp_path):
    cfg = write_config(tmp_path, sample_config())
    plan_file = tmp_path / "plan.json"
    assert main(["plan", "--config", cfg, "--out", str(plan_file)]) == EXIT_OK
    out1, out2 = tmp_path / "direct", tmp_path / "reused"
    assert main(["sample", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["sample", "--config", cfg, "--out", str(out2),
                 "--plan", str(plan_file)]) == EXIT_OK
    assert (out1 / "samples.jsonl").read_bytes() == (out2 / "samples.jsonl").read_bytes()


def test_sample_command_bad_chain_count(tmp_path):
    cfg = write_config(tmp_path, sample_config(n_chains=0))
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "x")]) \
        == EXIT_BAD_CONFIG


def test_bad_chains_flag_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, sample_config())
    out = tmp_path / "run"
    assert main(["sample", "--config", cfg, "--out", str(out), "--chains", "0"]) \
        == EXIT_BAD_CONFIG
    assert capsys.readouterr().err.startswith("config error: --chains: need an integer >= 1")
    assert not out.exists()


# a well-typed, out-of-regime plan document and a 2-D body it runs on
HAND_PLAN = {
    "inputs": {"q": 2, "eps": 0.2, "M": 1, "C_PI": 1,
               "alpha": 1.0, "beta": 1.0, "n": 2},
    "plan": {"eps_prime": 0.1, "eta": 0.025, "T": 5, "S": 100.0,
             "h": 100.0, "N": 1, "T0": 0, "T_tilde": 0.0},
}
UNIT_SQUARE = {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}


@pytest.mark.parametrize("section,key,value", [
    ("plan", "T", 2.9),
    ("plan", "T", "9"),
    ("plan", "N", True),
    ("plan", "N", 0),
    ("plan", "h", -1),
    ("plan", "S", 0.0),
    ("plan", "T0", -1),
    ("plan", "extra", 1),
    ("plan", "T_tilde", None),      # None deletes the key
    ("inputs", "q", "2"),
    ("inputs", "extra", 1),
    ("inputs", "n", 5),
    ("inputs", "n", 2.0),
    ("inputs", "eps", 0.7),
])
def test_bad_plan_document_exit_2(tmp_path, capsys, section, key, value):
    doc = {**HAND_PLAN, section: {**HAND_PLAN[section], key: value}}
    if value is None:
        del doc[section][key]
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(doc), encoding="utf-8")
    cfg = write_config(tmp_path, {"body": UNIT_SQUARE})
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "run"),
                 "--plan", str(plan_file)]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert f"{plan_file}.{section}" in err
    assert not (tmp_path / "run").exists()


def test_sample_command_all_failed_flag(tmp_path):
    # a handcrafted schedule with a hopeless step size and a single
    # allowed trial: every chain fails, which is reported, not an error
    plan_doc = {
        "inputs": {"q": 2, "eps": 0.2, "M": 1, "C_PI": 1,
                   "alpha": 1.0, "beta": 1.0, "n": 2},
        "plan": {"eps_prime": 0.1, "eta": 0.025, "T": 5, "S": 100.0,
                 "h": 100.0, "N": 1, "T0": 0, "T_tilde": 0.0},
    }
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(plan_doc), encoding="utf-8")
    cfg = write_config(tmp_path, {
        "body": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        "run": {"n_chains": 4, "seed": 3},
    })
    out = tmp_path / "failing"
    assert main(["sample", "--config", cfg, "--out", str(out),
                 "--plan", str(plan_file)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["all_failed"] is True
    assert summary["failure_fraction"] == 1.0
    recs = [json.loads(l) for l in
            (out / "samples.jsonl").read_text(encoding="utf-8").splitlines()]
    assert all(r["outcome"] == "failure" and r["x"] is None for r in recs)


def empty_exclusion(dim: int) -> dict:
    """A unit ball minus a hole that covers it, claiming volume 0.1."""
    return {"kind": "exclusion",
            "outer": {"kind": "ball", "center": [0.0] * dim, "radius": 1.0},
            "hole": {"kind": "ball", "center": [0.0] * dim, "radius": 2.0},
            "volume": 0.1}


@pytest.mark.parametrize("command,dim", [("sample", 2), ("diagnose", 2),
                                         ("diagnose", 3)])
def test_empty_body_is_exit_2(tmp_path, capsys, time_limit, command, dim):
    # the body constructs, and its bbox rejection used to loop forever
    cfg = write_config(tmp_path, {
        "body": empty_exclusion(dim),
        "plan": {"q": 2, "eps": 0.2, "M": 1, "C_PI": 4},
        "run": {"n_chains": 2, "t_cap": 5, "n_cap": 10},
        "diagnose": {"n_mc": 100, "r_grid": [0.5], "t_grid": [0.5]},
    })
    out = tmp_path / "out"
    with time_limit(30):
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert ("no grid cell center lies inside the body" in err if dim == 2
            and command == "diagnose" else "the body is empty" in err)
    assert not out.exists()


@pytest.mark.parametrize("command,module,name,error", [
    ("diagnose", "diagnostics", "GridOracle",
     "Unable to allocate 90.9 TiB for an array with shape (10000000, 10000000) "
     "and data type bool"),
    ("sample", "sampler", "run_ensemble", ""),
])
def test_out_of_memory_is_exit_2(tmp_path, capsys, monkeypatch, command, module,
                                 name, error):
    # diagnose.resolution 10**7 asks for a 90.9 TiB bitmap.  Under
    # overcommit such an allocation can succeed and the process be
    # killed while filling it, so the MemoryError is stubbed in, with
    # NumPy's message and with none
    def refuse(*args, **kwargs):
        raise MemoryError(error)

    monkeypatch.setattr(importlib.import_module(f"inandout.{module}"), name, refuse)
    cfg = write_config(tmp_path, {**diagnose_config(resolution=10**7),
                                  "run": {"n_chains": 2, "t_cap": 5, "n_cap": 10}})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: out of memory: {error or 'an allocation failed'}\n"
    assert not out.exists()


@pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="an ensemble splits across processes only with fork and "
                           "2 usable cores")
def test_out_of_memory_in_a_chain_worker_is_exit_2(tmp_path, capsys, monkeypatch):
    # the warm starts of chains 1 and 3 run in a forked worker, which
    # sends its MemoryError back to the caller
    me, draw = os.getpid(), bodies.sample_uniform

    def sample_uniform(body, rng, *args):
        if os.getpid() != me:
            raise MemoryError("Unable to allocate 1.00 TiB")
        return draw(body, rng, *args)

    monkeypatch.setattr(bodies, "sample_uniform", sample_uniform)
    cfg = write_config(tmp_path, sample_config(n_chains=4))
    out = tmp_path / "out"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == EXIT_BAD_CONFIG
    assert capsys.readouterr().err == "config error: out of memory: Unable to allocate 1.00 TiB\n"
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ------------------------------------------------------------- diagnose


# the reason both per-iteration records give for a 3-D body without a shell
CUBE_SKIP = ("no per-iteration quadrature for a 3-D body without a shell: only 2-D "
             "bodies (grid) and balls or concentric shells (radial) have one")


def diagnose_config(**diag):
    return {
        "body": ANNULUS_BODY,
        "plan": ANNULUS_PLAN,
        "diagnose": {"seed": 7, "n_mc": 2000,
                     "r_grid": [0.5], "t_grid": [0.5], "n_cells": 8, **diag},
    }


def test_diagnose_command_all_checks_pass(tmp_path, capsys):
    cfg = write_config(tmp_path, diagnose_config())
    out = tmp_path / "report.json"
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text(encoding="utf-8"))
    names = [c["name"] for c in report["checks"]]
    assert names == ["stationary_escape(r=0.5)", "stationary_failure",
                     "expected_trials", "certificate_soundness(t=0.5)",
                     "grid_tv"]
    assert all(c["status"] == "ran" for c in report["checks"])
    assert all(c["verdict"] == "satisfied" for c in report["checks"])
    assert report["environment"]["seed"] == 7


@pytest.mark.parametrize("doc,route", [
    (diagnose_config(n_mc=20_000), "grid quadrature"),
    ({"body": {"kind": "ball", "center": [0, 0, 0], "radius": 1.0}, "plan": ANNULUS_PLAN,
      "diagnose": {"seed": 1, "n_mc": 2000}}, "radial quadrature"),
    # a body without a shell has no per-iteration route
    ({"body": {"kind": "box", "lo": [-1, -1, -1], "hi": [1, 1, 1]}, "plan": ANNULUS_PLAN,
      "diagnose": {"seed": 1, "n_mc": 2000}}, CUBE_SKIP),
], ids=["grid", "radial", "nested"])
def test_diagnose_command_reruns_byte_identical(tmp_path, capsys, doc, route):
    cfg = write_config(tmp_path, doc)
    reports = [tmp_path / "first.json", tmp_path / "second.json"]
    for out in reports:
        assert main(["diagnose", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert reports[0].read_bytes() == reports[1].read_bytes()
    checks = json.loads(reports[0].read_text(encoding="utf-8"))["checks"]
    failure = {c["name"]: c for c in checks}["stationary_failure"]
    if route == CUBE_SKIP:
        assert failure == {"name": "stationary_failure", "status": "skipped",
                           "reason": CUBE_SKIP}
    else:
        assert failure["note"].startswith(route)


# failure mass and expected trials on the annulus plan from the exact
# radial integral (tests/test_diagnostics.py::exact_per_iteration_values)
ANNULUS_EXACT = {"stationary_failure": 7.141308901383221e-11,
                 "expected_trials": 2.963996167863696}


def test_diagnose_per_iteration_records_are_grid_quadrature(tmp_path):
    # a 2-D body's failure and trial records integrate the local
    # conductance on the diagnose grid; n_mc plays no part
    cfg = write_config(tmp_path, diagnose_config())
    out = tmp_path / "report.json"
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) == EXIT_OK
    checks = {c["name"]: c for c in
              json.loads(out.read_text(encoding="utf-8"))["checks"]}
    for name, exact in ANNULUS_EXACT.items():
        rec = checks[name]
        assert rec["verdict"] == "satisfied"
        assert rec["note"].startswith("grid quadrature")
        assert "resolution 400" in rec["note"] and "resolution 200" in rec["note"]
        assert rec["empirical"] == pytest.approx(exact, rel=1e-3)
        assert rec["n_samples"] == checks["stationary_failure"]["n_samples"]
    # the failure check now resolves its 3/S bound (6.7e-7 here)
    assert checks["stationary_failure"]["mc_std_error"] <= 1e-12


@pytest.mark.parametrize("body,route", [
    (ANNULUS_BODY, "radial draw"),
    ({"kind": "exclusion", "outer": {"kind": "box", "lo": [-1, -1], "hi": [1, 1]},
      "hole": {"kind": "ball", "center": [0.2, 0.0], "radius": 0.5},
      "volume": 4.0 - 0.25 * math.pi}, "bbox rejection"),
], ids=["annulus", "square-minus-disk"])
def test_diagnose_grid_tv_note_names_the_reference_route(tmp_path, body, route):
    cfg = write_config(tmp_path, {**diagnose_config(), "body": body})
    out = tmp_path / "report.json"
    main(["diagnose", "--config", cfg, "--out", str(out)])
    tv = {c["name"]: c for c in json.loads(out.read_text(encoding="utf-8"))["checks"]}
    assert tv["grid_tv"]["note"] == f"samples: exact-uniform reference ({route})"


def test_diagnose_integrates_a_ball_above_2d_in_the_radius(tmp_path):
    cfg = write_config(tmp_path, {
        "body": {"kind": "ball", "center": [0.0] * 10, "radius": 1.0},
        "plan": ANNULUS_PLAN,
        "diagnose": {"seed": 1, "n_mc": 2000, "r_grid": [0.25], "t_grid": [0.1]}})
    out = tmp_path / "report.json"
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) == EXIT_OK
    checks = {c["name"]: c for c in
              json.loads(out.read_text(encoding="utf-8"))["checks"]}
    # the exact values of the 10-D unit ball plan, far under 3/S = 8.4e-9
    # and 16 alpha log S = 315.1
    assert checks["stationary_failure"]["empirical"] == pytest.approx(6.6466e-13, rel=1e-4)
    assert checks["expected_trials"]["empirical"] == pytest.approx(2.22022, rel=1e-5)
    # the stated error is the change from half the nodes, far under the
    # value, plus the most the z sqrt(h) cut leaves out (2e-6 / N, 2e-6)
    p = planner.plan(planner.PlanInputs(q=2, eps=0.2, M=1, C_PI=4, alpha=1.0,
                                        beta=1.0, n=10))
    for name, left_out in (("stationary_failure", 2e-6 / p.N), ("expected_trials", 2e-6)):
        assert checks[name]["note"].startswith("radial quadrature")
        assert checks[name]["mc_std_error"] >= left_out
        assert checks[name]["mc_std_error"] - left_out <= 1e-9 * checks[name]["empirical"]


@pytest.mark.parametrize("resolution", [2, 3])
def test_diagnose_without_a_coarser_grid_is_a_hypothesis_violation(tmp_path,
                                                                  resolution):
    cfg = write_config(tmp_path, diagnose_config(resolution=resolution))
    out = tmp_path / "report.json"
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) \
        == EXIT_CHECK_FAILED
    checks = {c["name"]: c for c in
              json.loads(out.read_text(encoding="utf-8"))["checks"]}
    for name in ("stationary_failure", "expected_trials"):
        assert checks[name]["status"] == "hypothesis_violation"
        assert "resolution >= 4" in checks[name]["reason"]
        assert f"got {resolution}" in checks[name]["reason"]


def test_diagnose_command_uses_sample_file(tmp_path):
    run_cfg = write_config(tmp_path, sample_config(n_chains=200), "run.json")
    out = tmp_path / "runs"
    assert main(["sample", "--config", run_cfg, "--out", str(out)]) == EXIT_OK
    cfg = write_config(tmp_path, diagnose_config(n_cells=4), "diag.json")
    report_path = tmp_path / "report.json"
    code = main(["diagnose", "--config", cfg, "--out", str(report_path),
                 "--samples", str(out / "samples.jsonl")])
    assert code == EXIT_OK
    report = json.loads(report_path.read_text(encoding="utf-8"))
    tv = [c for c in report["checks"] if c["name"] == "grid_tv"][0]
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    n_success = round(200 * (1.0 - summary["failure_fraction"]))
    assert tv["n_samples"] == n_success
    assert "supplied sample file" in tv["note"]


GOOD_LINE = '{"chain": 0, "outcome": "success", "x": [0.75, 0.0]}'


@pytest.mark.parametrize("bad_line,message", [
    ('{"chain": 1, "outcome": "success", "x": [0.7', "line 2: not valid JSON"),
    ('[0.75, 0.0]', "line 2: expected an object"),
    ('{"outcome": "success", "x": [0.75]}', "line 2: x needs 2 finite numbers"),
    ('{"outcome": "success", "x": [0.75, [0.0]]}', "line 2: x needs 2"),
    ('{"outcome": "success", "x": [0.75, "0"]}', "line 2: x needs 2"),
    ('{"outcome": "success", "x": [0.75, NaN]}', "line 2: x needs 2"),
    ('{"outcome": "success", "x": [0.75, true]}', "line 2: x needs 2"),
    ('{"outcome": "success", "x": null}', "line 2: x needs 2"),
    ('{"outcome": "sucess", "x": [50.0, 50.0]}',
     'line 2: outcome must be "success" or "failure", got \'sucess\''),
    ('{"x": [0.75, 0.0]}', 'line 2: outcome must be "success" or "failure", got None'),
])
def test_diagnose_rejects_malformed_sample_file(tmp_path, capsys, bad_line, message):
    samples = tmp_path / "samples.jsonl"
    samples.write_text(f"{GOOD_LINE}\n{bad_line}\n", encoding="utf-8")
    cfg = write_config(tmp_path, diagnose_config())
    report = tmp_path / "report.json"
    assert main(["diagnose", "--config", cfg, "--out", str(report),
                 "--samples", str(samples)]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert f"samples file {samples} {message}" in err
    assert not report.exists()


def test_diagnose_command_flags_hypothesis_violation(tmp_path):
    cfg = write_config(tmp_path, diagnose_config(h_override=0.5))
    out = tmp_path / "report.json"
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) \
        == EXIT_CHECK_FAILED
    report = json.loads(out.read_text(encoding="utf-8"))
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["stationary_escape(r=0.5)"]["status"] == "hypothesis_violation"
    assert "regime" in by_name["stationary_escape(r=0.5)"]["reason"]
    assert by_name["stationary_failure"]["status"] == "hypothesis_violation"
    assert report["environment"]["h"] == 0.5


def test_diagnose_command_skips_unsupported_in_5d(tmp_path, capsys):
    r = 1.0 / (5.0 + math.sqrt(5.0))
    body = {
        "kind": "polytope",
        "A": [[-1 if j == i else 0 for j in range(5)] for i in range(5)]
             + [[1, 1, 1, 1, 1]],
        "b": [0, 0, 0, 0, 0, 1],
        "inner_center": [r] * 5,
        "inner_radius": r,
    }
    cfg = write_config(tmp_path, {
        "body": body,
        "plan": {"q": 2, "eps": 0.2, "M": 1, "C_PI": 1},
        "diagnose": {"seed": 1, "n_mc": 400,
                     "r_grid": [0.5], "t_grid": [0.5]},
    })
    out = tmp_path / "report.json"
    # no check ran, which is no verdict: exit 1, with the reason
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) == EXIT_CHECK_FAILED
    assert capsys.readouterr().err == "diagnose: no check ran; every record is skipped\n"
    report = json.loads(out.read_text(encoding="utf-8"))
    status = {c["name"]: c["status"] for c in report["checks"]}
    assert status["stationary_escape(r=0.5)"] == "skipped"
    assert status["certificate_soundness(t=0.5)"] == "skipped"
    assert status["grid_tv"] == "skipped"
    assert status["stationary_failure"] == "skipped"
    assert status["expected_trials"] == "skipped"
    reason = {c["name"]: c.get("reason") for c in report["checks"]}
    for name in ("stationary_failure", "expected_trials"):
        assert reason[name].startswith("no per-iteration quadrature for a 5-D body "
                                       "without a shell")
    ran = [c for c in report["checks"] if c["status"] == "ran"]
    assert all(c["verdict"] == "satisfied" for c in ran)


SIMPLEX_5D = {
    "kind": "polytope",
    "A": [[-1 if j == i else 0 for j in range(5)] for i in range(5)] + [[1, 1, 1, 1, 1]],
    "b": [0, 0, 0, 0, 0, 1],
    "inner_center": [1.0 / (5.0 + math.sqrt(5.0))] * 5,
    "inner_radius": 1.0 / (5.0 + math.sqrt(5.0)),
}
PER_ITERATION = ("stationary_failure", "expected_trials")


def outcomes(names, outcome):
    return dict.fromkeys(names, outcome)


def bench_config(name):
    path = os.path.join(os.path.dirname(__file__), "..", "bench", "configs", name)
    with open(path, encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize("doc,one_sector,expected,code", [
    # the README config: every record ran and is satisfied
    (bench_config("annulus.json"), False,
     outcomes(["stationary_escape(r=0.25)", "stationary_escape(r=0.5)", *PER_ITERATION,
               "certificate_soundness(t=0.5)", "grid_tv"], "satisfied"), EXIT_OK),
    # a step above the per-iteration cap
    (diagnose_config(h_override=0.5), False,
     {**outcomes(["stationary_escape(r=0.5)", *PER_ITERATION], "hypothesis_violation"),
      **outcomes(["certificate_soundness(t=0.5)", "grid_tv"], "satisfied")},
     EXIT_CHECK_FAILED),
    # more cells than the annulus occupies at resolution 400
    (diagnose_config(n_cells=200_000), False,
     {**outcomes(["stationary_escape(r=0.5)", *PER_ITERATION,
                  "certificate_soundness(t=0.5)"], "satisfied"),
      "grid_tv": "hypothesis_violation"}, EXIT_CHECK_FAILED),
    # a sample file whose every point lies in one sector
    (diagnose_config(), True,
     {**outcomes(["stationary_escape(r=0.5)", *PER_ITERATION,
                  "certificate_soundness(t=0.5)"], "satisfied"),
      "grid_tv": "violated_beyond_3se"}, EXIT_CHECK_FAILED),
    # nothing applies to the 5-D simplex: no record fails, and none ran
    ({"body": SIMPLEX_5D, "plan": {"q": 2, "eps": 0.2, "M": 1, "C_PI": 1},
      "diagnose": {"seed": 1, "n_mc": 400, "r_grid": [0.5], "t_grid": [0.5]}}, False,
     outcomes(["stationary_escape(r=0.5)", *PER_ITERATION,
               "certificate_soundness(t=0.5)", "grid_tv"], "skipped"), EXIT_CHECK_FAILED),
], ids=["readme", "h_override", "n_cells", "one_sector", "simplex_5d"])
def test_diagnose_exit_code_is_read_from_its_records(tmp_path, doc, one_sector,
                                                     expected, code):
    out = tmp_path / "report.json"
    argv = ["diagnose", "--config", write_config(tmp_path, doc), "--out", str(out)]
    if one_sector:
        samples = tmp_path / "samples.jsonl"
        samples.write_text('{"outcome": "success", "x": [0.75, 0.01]}\n' * 200,
                           encoding="utf-8")
        argv += ["--samples", str(samples)]
    got = main(argv)
    records = json.loads(out.read_text(encoding="utf-8"))["checks"]
    assert {r["name"]: r["verdict"] if r["status"] == "ran" else r["status"]
            for r in records} == expected
    failed = any(r["status"] == "hypothesis_violation"
                 or r.get("verdict", "satisfied") != "satisfied" for r in records)
    ran = any(r["status"] == "ran" for r in records)
    assert got == (EXIT_CHECK_FAILED if failed or not ran else EXIT_OK) == code


def cube_config(**diag):
    return {"body": BOX3_BODY, "plan": {"q": 2, "eps": 0.2, "M": 1, "C_PI": 4},
            "diagnose": {"seed": 1, **diag}}


def test_diagnose_gates_a_cube_before_it_skips_it(tmp_path):
    # a bad h is a hypothesis violation for every body, routed or not
    cube = cli.build_body(BOX3_BODY)
    g = cube.growth
    p = planner.plan(planner.PlanInputs(q=2, eps=0.2, M=1, C_PI=4, alpha=g.alpha,
                                        beta=g.beta, n=3))
    cap = planner.step_size_regime(3, g.beta, g.alpha, p.S).per_iteration_cap
    cfg = write_config(tmp_path, cube_config(n_mc=2000, r_grid=[0.5], t_grid=[0.5],
                                             h_override=2.0 * cap))
    out = tmp_path / "report.json"
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) == EXIT_CHECK_FAILED
    checks = {c["name"]: c for c in json.loads(out.read_text(encoding="utf-8"))["checks"]}
    for name in ("stationary_failure", "expected_trials"):
        assert checks[name]["status"] == "hypothesis_violation"
        assert "per-iteration regime cap" in checks[name]["reason"]


def test_diagnose_skips_the_cube_and_refuses_inner_mc(tmp_path, capsys):
    # a correct convex body: a nested Monte Carlo at n_mc 100,000 and
    # inner_mc 300 read its failure mass as 1.8e-4 against 3/S = 2.36e-7
    cfg = write_config(tmp_path, cube_config(n_mc=100_000))
    out = tmp_path / "report.json"
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text(encoding="utf-8"))
    checks = {c["name"]: c for c in report["checks"]}
    for name in ("stationary_failure", "expected_trials"):
        assert checks[name] == {"name": name, "status": "skipped", "reason": CUBE_SKIP}
    assert all(c["verdict"] == "satisfied" for c in report["checks"] if c["status"] == "ran")
    assert "inner_mc" not in report["environment"]
    cfg = write_config(tmp_path, cube_config(n_mc=100_000, inner_mc=300))
    out = tmp_path / "refused.json"
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert "config.diagnose" in err and "inner_mc" in err
    assert not out.exists()


def test_diagnose_skips_a_certificate_check_no_draw_resolves(tmp_path):
    # at t = 1 the 10-D unit ball fills 2.4e-6 of its inflated bbox, so
    # no draw lands inside; the record is skipped and the report written
    cfg = write_config(tmp_path, {
        "body": {"kind": "ball", "center": [0] * 10, "radius": 1.0},
        "plan": {"q": 2, "eps": 0.2, "M": 1, "C_PI": 4},
        "diagnose": {"seed": 1, "n_mc": 200,
                     "r_grid": [0.5], "t_grid": [1.0]},
    })
    out = tmp_path / "report.json"
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) \
        in (EXIT_OK, EXIT_CHECK_FAILED)
    checks = {c["name"]: c for c in
              json.loads(out.read_text(encoding="utf-8"))["checks"]}
    skipped = checks["certificate_soundness(t=1.0)"]
    assert skipped["status"] == "skipped"
    assert "n_mc = 200" in skipped["reason"] and "t = 1.0" in skipped["reason"]


BALL_3D = {"kind": "ball", "center": [0, 0, 0], "radius": 1}
RADIAL_NAN = "radial local conductance is not finite at h = 1e-10"


@pytest.mark.parametrize("body,setting,skipped", [
    # the inflated bbox's width overflows, which rng.uniform refuses
    (ANNULUS_BODY, {"t_grid": [1e308]},
     {"certificate_soundness(t=1e+308)":
      "the bbox inflated by t = 1e+308 exceeds the float range"}),
    # scipy.special.chndtr is NaN at two radial nodes near the sphere
    (BALL_3D, {"h_override": 1e-10},
     {"stationary_failure": RADIAL_NAN, "expected_trials": RADIAL_NAN,
      "grid_tv": "grid oracle is 2-D only"}),
    # the escape bound's argument r / sqrt(h) is inf, its tail 0
    (ANNULUS_BODY, {"r_grid": [1e308]}, {}),
], ids=["t_grid", "h_override", "r_grid"])
def test_diagnose_reports_extreme_finite_settings(tmp_path, body, setting, skipped):
    cfg = write_config(tmp_path, {
        "body": body, "plan": ANNULUS_PLAN,
        "diagnose": {"seed": 7, "n_mc": 20000, "r_grid": [0.25, 0.5], "t_grid": [0.5],
                     **setting},
    })
    out = tmp_path / "report.json"
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) == EXIT_OK
    checks = json.loads(out.read_text(encoding="utf-8"))["checks"]
    assert {c["name"]: c["reason"] for c in checks if c["status"] == "skipped"} == skipped


@pytest.mark.parametrize("n_cells", [200_000, 10**12])
def test_diagnose_refuses_more_cells_than_the_grid_occupies(tmp_path, monkeypatch,
                                                           n_cells):
    # the annulus occupies 94,248 cells at resolution 400: grid_tv is a
    # hypothesis violation before its 5 n_cells reference points are drawn
    sizes = []
    draw = bodies.sample_uniform

    def spy(body, rng, size=None):
        sizes.append(size)
        return draw(body, rng, size)

    monkeypatch.setattr(bodies, "sample_uniform", spy)
    cfg = write_config(tmp_path, {
        "body": ANNULUS_BODY, "plan": ANNULUS_PLAN,
        "diagnose": {"seed": 7, "n_mc": 200, "r_grid": [0.25], "t_grid": [0.5],
                     "n_cells": n_cells},
    })
    out = tmp_path / "report.json"
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) == EXIT_CHECK_FAILED
    checks = {c["name"]: c for c in
              json.loads(out.read_text(encoding="utf-8"))["checks"]}
    assert checks["grid_tv"]["status"] == "hypothesis_violation"
    assert checks["grid_tv"]["reason"] == (
        f"config.diagnose.n_cells: {n_cells} is more than the 94248 cells "
        "the body occupies at resolution 400")
    assert sizes == []


# a box right of the bbox center and two specks in its left corners,
# diagnosed at resolution 5: two occupied cells, at one angle from the
# bbox center, and none on the resolution-2 grid
THREE_BOXES = {
    "body": {"kind": "union", "volume": 0.0402,
             "parts": [{"kind": "box", "lo": lo, "hi": hi} for lo, hi in (
                 ([0.6, 0.45], [1.0, 0.55]), ([0.0, 0.0], [0.01, 0.01]),
                 ([0.0, 0.99], [0.01, 1.0]))]},
    "plan": ANNULUS_PLAN,
    "diagnose": {"seed": 7, "n_mc": 200, "r_grid": [0.25], "t_grid": [0.5],
                 "resolution": 5, "n_cells": 2},
}


def test_diagnose_names_why_grid_tv_has_one_sector(tmp_path):
    # at resolution 5 the body's two occupied cells lie on one ray from
    # the bbox center; gamma_q used to refuse the chi-square's zero
    # degrees of freedom with a message that did not name the cause
    cfg = write_config(tmp_path, THREE_BOXES)
    out = tmp_path / "report.json"
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) == EXIT_CHECK_FAILED
    checks = {c["name"]: c for c in
              json.loads(out.read_text(encoding="utf-8"))["checks"]}
    assert checks["grid_tv"] == {
        "name": "grid_tv", "status": "hypothesis_violation",
        "reason": "every occupied grid cell lies at one angle from the bbox center, "
                  "which leaves one sector and no degrees of freedom"}


def test_diagnose_names_the_empty_grid_of_half_the_resolution(tmp_path):
    # the body's resolution-5 grid holds two cell centers, its
    # resolution-2 grid, on which the grid quadrature measures its
    # error, none
    cfg = write_config(tmp_path, THREE_BOXES)
    out = tmp_path / "report.json"
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) == EXIT_CHECK_FAILED
    checks = {c["name"]: c for c in
              json.loads(out.read_text(encoding="utf-8"))["checks"]}
    reason = ("grid quadrature measures its error as the change from a grid of half "
              "the resolution, and no cell center of the resolution-2 grid lies inside "
              "the body (the resolution-5 grid holds 2)")
    for name in ("stationary_failure", "expected_trials"):
        assert checks[name] == {"name": name, "status": "hypothesis_violation",
                                "reason": reason}


# ------------------------------------------------------------ I/O paths


def test_missing_config_file_is_io_error(tmp_path):
    assert main(["plan", "--config", str(tmp_path / "nope.json")]) == EXIT_IO


def test_unwritable_sample_dir_is_io_error(tmp_path):
    cfg = write_config(tmp_path, sample_config(n_chains=1))
    assert main(["sample", "--config", cfg, "--out", "/dev/null/sub"]) == EXIT_IO


def test_unwritable_plan_file_is_io_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"body": ANNULUS_BODY, "plan": ANNULUS_PLAN})
    out = str(tmp_path / "missing" / "plan.json")
    assert main(["plan", "--config", cfg, "--out", out]) == EXIT_IO
    assert f"cannot write plan {out}" in capsys.readouterr().err


def test_unwritable_diagnose_report_is_io_error(tmp_path, capsys):
    cfg = write_config(tmp_path, diagnose_config(resolution=40))
    out = str(tmp_path / "missing" / "report.json")
    assert main(["diagnose", "--config", cfg, "--out", out]) == EXIT_IO
    assert f"cannot write report {out}" in capsys.readouterr().err


def test_unreadable_samples_file_is_io_error(tmp_path, capsys):
    cfg = write_config(tmp_path, diagnose_config())
    samples = str(tmp_path / "missing.jsonl")
    out = tmp_path / "report.json"
    assert main(["diagnose", "--config", cfg, "--out", str(out),
                 "--samples", samples]) == EXIT_IO
    assert f"cannot read samples {samples}" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_json_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["plan", "--config", str(bad)]) == EXIT_BAD_CONFIG


# ------------------------------------------------------- console script


def test_console_script_plan_roundtrip(tmp_path):
    cfg = write_config(tmp_path, {"body": ANNULUS_BODY, "plan": ANNULUS_PLAN})
    proc = subprocess.run(
        [sys.executable, "-m", "inandout.cli", "plan", "--config", cfg],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "RuntimeWarning" not in proc.stderr
    assert json.loads(proc.stdout)["plan"]["T"] == 37519


# Importing scipy.special, .spatial and .optimize takes about 0.5 s, twice
# NumPy's start-up, and scipy.stats about 0.6 s more.  A bare `import
# inandout` loads no submodule, `cli` loads `bodies` and `planner`, each
# command the modules it runs, and each call that needs SciPy the
# submodule it calls; `diagnose` evaluates its chi tails and erfc values
# without SciPy.
SCIPY_MODULES = ("scipy", "scipy.special", "scipy.spatial", "scipy.optimize",
                 "scipy.stats")

BALL10_BODY = {"kind": "ball", "center": [0.0] * 10, "radius": 1.0}
BALL3_BODY = {"kind": "ball", "center": [0.0] * 3, "radius": 1.0}
BOX3_BODY = {"kind": "box", "lo": [-1.0] * 3, "hi": [1.0] * 3}
SQUARE_POLYTOPE = {"kind": "polytope", "A": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                   "b": [1, 1, 1, 1], "inner_center": [0, 0], "inner_radius": 1}


def all_modules_loaded(code):
    """Every module that `code` loads in a fresh interpreter."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    names = json.loads(proc.stdout.splitlines()[-1])
    assert "inandout" in names
    return set(names)


def modules_loaded(code):
    """(inandout submodules, SCIPY_MODULES) that `code` loads in a fresh interpreter."""
    names = all_modules_loaded(code)
    return ({m.split(".", 1)[1] for m in names if m.startswith("inandout.")},
            names & set(SCIPY_MODULES))


CLI = {"cli", "bodies", "planner"}
SAMPLE = CLI | {"sampler"}
DIAGNOSE = SAMPLE | {"diagnostics", "specfun"}


@pytest.mark.parametrize("run,modules,scipy", [
    ("import inandout", set(), set()),
    ("import inandout.cli", CLI, set()),
    (("plan", ANNULUS_BODY), CLI, set()),
    (("sample", ANNULUS_BODY), SAMPLE, set()),
    (("plan", BALL10_BODY), CLI, set()),
    (("sample", BALL10_BODY), SAMPLE, set()),
    (("diagnose", ANNULUS_BODY), DIAGNOSE, set()),
    # the radial quadrature's noncentral chi-square law
    (("diagnose", BALL3_BODY, {"n_mc": 2000}), DIAGNOSE,
     {"scipy", "scipy.special"}),
    # the up-front draw and the escape bound's chi_tail(6, .); few draws
    # keep it fast, and the per-iteration records are skipped
    (("diagnose", BOX3_BODY, {"n_mc": 2000}), DIAGNOSE, set()),
    # linprog finds the polytope's bounding box; scipy.optimize itself
    # loads .special and .spatial
    (f"from inandout import cli\ncli.build_body({SQUARE_POLYTOPE!r})", CLI,
     {"scipy", "scipy.optimize", "scipy.special", "scipy.spatial"}),
], ids=["import", "import-cli", "plan-annulus", "sample-annulus",
        "plan-ball10", "sample-ball10", "diagnose-annulus", "diagnose-ball3",
        "diagnose-box3", "build-polytope"])
def test_start_up_loads_only_the_scipy_a_command_calls(tmp_path, run, modules, scipy):
    if isinstance(run, tuple):
        command, body, *diagnose = run
        cfg = write_config(tmp_path, {
            "body": body, "plan": ANNULUS_PLAN,
            "run": {"n_chains": 2, "seed": 42, "t_cap": 50, "n_cap": 100000},
            "diagnose": {"seed": 7, "n_mc": 20000, "r_grid": [0.25, 0.5],
                         "t_grid": [0.5], **(diagnose[0] if diagnose else {})}})
        argv = [command, "--config", cfg]
        if command != "plan":
            argv += ["--out", str(tmp_path / "out")]
        run = f"from inandout import cli\nassert cli.main({argv!r}) == 0"
    assert modules_loaded(run) == (modules, scipy)


BENCH_ANNULUS = os.path.join(os.path.dirname(__file__), "..", "bench", "configs",
                             "annulus.json")


@pytest.mark.parametrize("argv", [
    ["plan"],
    ["diagnose", "--out", "{tmp}/report.json"],
    ["sample", "--out", "{tmp}/one", "--chains", "1"],
    # splits across processes where fork and 2 usable cores allow it
    ["sample", "--out", "{tmp}/two", "--chains", "2"],
], ids=["plan", "diagnose", "sample-1-chain", "sample-2-chains"])
def test_no_command_loads_multiprocessing(tmp_path, argv):
    argv = [argv[0], "--config", BENCH_ANNULUS, *(a.format(tmp=tmp_path) for a in argv[1:])]
    run = f"from inandout import cli\nassert cli.main({argv!r}) == 0"
    assert "multiprocessing" not in all_modules_loaded(run)


def test_every_submodule_resolves_on_the_bare_package():
    # bench/tracing.py reads the submodules off a bare `import inandout`
    names = ("bodies", "cli", "diagnostics", "planner", "sampler", "specfun")
    code = ("import inandout\n"
            f"for name in {names!r}:\n"
            "    assert getattr(inandout, name).__name__ == 'inandout.' + name\n"
            "assert not hasattr(inandout, 'missing')")
    modules, _ = modules_loaded(code)
    assert modules == set(names)
