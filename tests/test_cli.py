from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import csv_cell_chain

from nonescape.asymptote import post_exponential_window, slope_fit
from nonescape.cli import (
    _CONVERTERS,
    _TOP_KEYS,
    _UNITS_NOTE,
    _write_csv,
    build_parser,
    load_config,
    main,
    parse_config,
)
from nonescape.dynamics import MAX_TIME_SAMPLES, TimeGrid, nonescape_probability
from nonescape.errors import ConfigError, InvalidPotential, InvalidState, TruncationUnstable
from nonescape.gamow import overlap_matrix
from nonescape.model import BoxMode, DeltaShell
from nonescape.oracle import GridSpec
from nonescape.poles import SearchWindow
from nonescape.selftest import SelftestContext
from nonescape.specfn import moshinsky

_K1 = "2.7579383212949247"


def _config(**overrides) -> dict:
    cfg = {
        "potential": {"kind": "delta_shell", "strength": 6.0, "radius": 1.0},
        "initial_state": {"kind": "box_mode", "mode": 1, "radius": 1.0},
        "pole_search": {"re_max": 12.0, "im_min": -2.0},
        "truncations": [2, 3],
        "time_grid": {"kind": "log", "t_min": 0.05, "t_max": 2.0, "per_decade": 12},
        "oracle_grid": {"box_size": 12.0, "dr": 0.005, "dt": 0.0004, "t_final": 1.0},
        "r_points": [0.25, 0.5, 0.75],
    }
    cfg.update(overrides)
    return cfg


@pytest.fixture()
def config_path(tmp_path: Path) -> Path:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_config()))
    return path


def _read_csv(path: Path) -> tuple[list[str], list[str], list[dict]]:
    lines = path.read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    reader = csv.DictReader(body)
    return meta, reader.fieldnames or [], list(reader)


def test_poles_frozen_wavenumber(config_path: Path, tmp_path: Path) -> None:
    out = tmp_path / "out"
    assert main(["poles", "--config", str(config_path), "--out", str(out)]) == 0
    meta, header, rows = _read_csv(out / "poles.csv")
    assert header == ["n", "re_k", "im_k", "residual"]
    assert meta[0] == "# nonescape poles"
    assert meta[2] == "# units: hbar=2m=1"
    assert len(rows) == 4
    assert rows[0]["n"] == "1"
    assert rows[0]["re_k"] == _K1
    assert rows[0]["im_k"] == "-0.14043273246623328"
    assert float(rows[0]["residual"]) <= 1e-10 * 1e3  # raw |J|, tiny


def test_config_hash_stable_across_commands(config_path: Path, tmp_path: Path) -> None:
    out = tmp_path / "out"
    main(["poles", "--config", str(config_path), "--out", str(out)])
    main(["sumrule", "--config", str(config_path), "--out", str(out)])
    hash_lines = set()
    for name in ("poles.csv", "sumrule.csv"):
        meta, _, _ = _read_csv(out / name)
        hash_lines.add(meta[1])
    assert len(hash_lines) == 1
    digest = hash_lines.pop().split(": ")[1]
    assert len(digest) == 12
    assert all(c in "0123456789abcdef" for c in digest)


def test_free_potential_yields_empty_table(tmp_path: Path) -> None:
    cfg = _config(potential={"kind": "piecewise_constant", "pieces": [[0.0, 1.0, 0.0]]})
    path = tmp_path / "free.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["poles", "--config", str(path), "--out", str(out)]) == 0
    _, header, rows = _read_csv(out / "poles.csv")
    assert header == ["n", "re_k", "im_k", "residual"]
    assert rows == []


def test_attractive_potential_rejected(tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    cfg = _config(potential={"kind": "delta_shell", "strength": -2.0, "radius": 1.0})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    rc = main(["poles", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["exit_code"] == 2
    assert err["error"]["category"] == "config"
    assert err["error"]["type"] == "InvalidPotential"
    assert "positive (repulsive)" in err["error"]["message"]


def test_unknown_config_key_rejected(tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    cfg = _config()
    cfg["surprise"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["poles", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ConfigError"
    assert "surprise" in err["error"]["message"]


def test_malformed_config_inputs(tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    missing = main(["poles", "--config", str(tmp_path / "nope.json")])
    assert missing == 2
    assert "cannot read config" in json.loads(capsys.readouterr().err)["error"]["message"]

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["poles", "--config", str(bad_json)]) == 2
    assert "not valid JSON" in json.loads(capsys.readouterr().err)["error"]["message"]

    huge = tmp_path / "huge.json"  # an integer past Python's 4300-digit limit
    huge.write_text(json.dumps(_config(truncations=[1])).replace("[1]", "[" + "9" * 5000 + "]"))
    assert main(["poles", "--config", str(huge)]) == 2
    assert "not valid JSON" in json.loads(capsys.readouterr().err)["error"]["message"]

    unordered = tmp_path / "unordered.json"
    unordered.write_text(json.dumps(_config(truncations=[3, 2])))
    assert main(["poles", "--config", str(unordered)]) == 2
    assert "ascending" in json.loads(capsys.readouterr().err)["error"]["message"]


@pytest.mark.parametrize("t_max", ["Infinity", "1e400"])
def test_infinite_log_grid_end_rejected(
    tmp_path: Path, capsys: pytest.CaptureFixture, t_max: str
) -> None:
    grid = {"kind": "log", "t_min": 0.05, "t_max": "END", "per_decade": 12}
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(_config(time_grid=grid)).replace('"END"', t_max))
    assert main(["poles", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError"
    assert "no finite number of points" in err["message"]


def _key_paths(node, prefix: tuple = ()):
    """The path of every value below the root of a decoded JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield (*prefix, key)
        yield from _key_paths(child, (*prefix, key))


def _with(base: dict, path: tuple, value) -> dict:
    """A copy of ``base`` with ``value`` at ``path``; ``...`` deletes the key."""
    raw = copy.deepcopy(base)
    node = raw
    for key in path[:-1]:
        node = node[key]
    if value is ...:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return raw


_DEFAULT_CONFIG = json.loads(
    resources.files("nonescape.data").joinpath("default_config.json").read_text()
)
_README_CONFIG = json.loads(
    re.search(
        r"Config schema \(all keys shown.*?```json\n(.*?)```",
        (Path(__file__).resolve().parents[1] / "README.md").read_text(),
        re.S,
    ).group(1)
)
# the config sections parsed from a dataclass, with the keys each adds to its fields
_SECTIONS = {
    "potential": (DeltaShell, {"kind"}),
    "initial_state": (BoxMode, {"kind"}),
    "pole_search": (SearchWindow, {"tol"}),
    "oracle_grid": (GridSpec, set()),
}


@pytest.mark.parametrize("cls", [cls for cls, _ in _SECTIONS.values()], ids=lambda c: c.__name__)
def test_every_config_field_has_a_converted_type(cls: type) -> None:
    # a field of any other type would fail the first config that sets it
    for field in dataclasses.fields(cls):
        assert field.type in _CONVERTERS, (cls.__name__, field.name, field.type)


def test_readme_schema_parses_and_names_every_accepted_key() -> None:
    cfg = parse_config(_README_CONFIG)
    assert cfg.digest == "fe83ecec5a55"
    assert set(_README_CONFIG) == set(_TOP_KEYS)
    for name, (cls, extra) in _SECTIONS.items():
        fields = {f.name for f in dataclasses.fields(cls)}
        assert set(_README_CONFIG[name]) == fields | extra, name
    log_keys = {"kind", "t_min", "t_max", "per_decade"}
    assert set(_README_CONFIG["time_grid"]) == log_keys
    # ... and every section refuses a key beyond them
    for name in _SECTIONS.keys() | {"time_grid"}:
        with pytest.raises(ConfigError, match=f"unknown key\\(s\\) in {name}: extra"):
            parse_config(_with(_README_CONFIG, (name, "extra"), 1.0))


def test_readme_python_quick_start_runs() -> None:
    # the first python block; the oracle block after it is a three-minute run
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("0.9638")  # P(0.05)
    tail = [line.split() for line in lines[-4:]]
    assert [int(n) for n, _, _ in tail] == [5, 10, 20, 40]
    t1 = [float(v) for _, v, _ in tail]
    crossover = [float(c) for _, _, c in tail]
    assert t1 == sorted(t1, reverse=True) and crossover == sorted(crossover)
    assert len(set(crossover)) == 4


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("potential", "radius"), ..., "missing key 'radius' in potential"),
        (("potential", "strength"), "6", "strength must be a number, got '6'"),
        (("initial_state", "mode"), 1.0, "mode must be an integer, got 1.0"),
        (("pole_search", "tol"), True, "tol must be a number, got True"),
        (("oracle_grid", "dt"), ..., "missing key 'dt' in oracle_grid"),
        (("oracle_grid", "smooth_initial"), 1, "oracle_grid.smooth_initial must be a boolean"),
        (("oracle_grid",), [], "oracle_grid must be an object"),
    ],
)
def test_dataclass_section_errors_name_the_key(path: tuple, value, message: str) -> None:
    with pytest.raises(ConfigError) as info:
        parse_config(_with(_README_CONFIG, path, value))
    assert str(info.value) == message


# Any JSON value, with the extremes drawn on their own as often as the rest.
# Numbers stay within +-1e6 apart from those, and lists and objects stay
# small, so that no draw builds a large time grid.
_EXTREMES = [math.inf, -math.inf, math.nan, 5e-324, 1e-300, 1e300, 0, -1, True, None, ""]
_JSON_VALUES = st.sampled_from(_EXTREMES) | st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-1000, 1000)
    | st.floats(-1e6, 1e6)
    | st.sampled_from(_EXTREMES)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


# the packaged default and README's schema block, each fuzzed at its own keys
_FUZZED = [(base, set(_key_paths(base))) for base in (_DEFAULT_CONFIG, _README_CONFIG)]


@pytest.mark.parametrize(
    "path", list(dict.fromkeys(p for base, _ in _FUZZED for p in _key_paths(base))), ids=str
)
@settings(max_examples=40, deadline=None)
@given(value=_JSON_VALUES)
def test_any_value_at_any_config_key_parses_or_raises_typed_error(path: tuple, value) -> None:
    for base, paths in _FUZZED:
        if path in paths:
            try:
                parse_config(_with(base, path, value))
            except (ConfigError, InvalidPotential, InvalidState):
                pass


def test_outputs_byte_deterministic(config_path: Path, tmp_path: Path) -> None:
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["sumrule", "--config", str(config_path), "--out", str(out)]) == 0
        assert main(["poles", "--config", str(config_path), "--out", str(out)]) == 0
    for name in ("sumrule.csv", "poles.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_sumrule_radius_override(config_path: Path, tmp_path: Path) -> None:
    out = tmp_path / "out"
    rc = main(
        ["sumrule", "--config", str(config_path), "--out", str(out), "--r", "0.3,0.6"]
    )
    assert rc == 0
    _, _, rows = _read_csv(out / "sumrule.csv")
    assert sorted(set(row["r"] for row in rows)) == ["0.29999999999999999", "0.59999999999999998"]
    assert sorted(set(row["n_pairs"] for row in rows)) == ["2", "3"]
    assert all(float(row["abs_s"]) > 0.0 for row in rows)
    rc = main(["sumrule", "--config", str(config_path), "--out", str(out), "--r", "x"])
    assert rc == 2


def test_nonescape_modes_agree(config_path: Path, tmp_path: Path) -> None:
    out = tmp_path / "out"
    assert main(["nonescape", "--config", str(config_path), "--out", str(out)]) == 0
    _, header, rows = _read_csv(out / "nonescape.csv")
    assert header == ["mode", "n_pairs", "t", "p", "imag_residual"]
    by_mode: dict[str, list[float]] = {"closed": [], "quadrature": []}
    for row in rows:
        by_mode[row["mode"]].append(float(row["p"]))
    assert len(by_mode["closed"]) == len(by_mode["quadrature"]) > 0
    np.testing.assert_allclose(by_mode["closed"], by_mode["quadrature"], atol=1e-9)


def test_nonescape_time_overrides(config_path: Path, tmp_path: Path) -> None:
    out = tmp_path / "out"
    rc = main(
        [
            "nonescape",
            "--config",
            str(config_path),
            "--out",
            str(out),
            "--nmax",
            "2",
            "--tmin",
            "0.5",
            "--tmax",
            "1.5",
        ]
    )
    assert rc == 0
    _, _, rows = _read_csv(out / "nonescape.csv")
    times = sorted(set(float(row["t"]) for row in rows))
    assert all(0.5 <= t <= 1.5 for t in times)
    assert set(row["n_pairs"] for row in rows) == {"2"}

    rc = main(
        ["nonescape", "--config", str(config_path), "--out", str(out), "--points", "7"]
    )
    assert rc == 0
    _, _, rows = _read_csv(out / "nonescape.csv")
    assert len(set(row["t"] for row in rows)) == 7


@pytest.mark.parametrize("points", ["-1", "0", str(MAX_TIME_SAMPLES + 1)])
def test_bad_points_flag_is_a_config_error(
    config_path: Path, tmp_path: Path, capsys: pytest.CaptureFixture, points: str
) -> None:
    argv = ["nonescape", "--config", str(config_path), "--out", str(tmp_path / "o")]
    assert main([*argv, "--points", points]) == 2
    error = _error_line(capsys)
    assert error["type"] == "ConfigError" and "--points" in error["message"]


@pytest.mark.parametrize(
    "t_min, t_max, points, message",
    [
        (0.0, 2.0, -1, "points"),
        (0.0, 2.0, 0, "points"),
        (0.0, 2.0, MAX_TIME_SAMPLES + 1, "points"),
        (0.0, math.inf, 5, "finite"),
        (-1e308, 1e308, 5, "finite"),  # the step overflows
    ],
)
def test_bad_linear_grid_is_a_config_error(
    tmp_path: Path,
    capsys: pytest.CaptureFixture,
    t_min: float,
    t_max: float,
    points: int,
    message: str,
) -> None:
    grid = {"kind": "linear", "t_min": t_min, "t_max": t_max, "points": points}
    path = tmp_path / "linear.json"
    path.write_text(json.dumps(_config(time_grid=grid)))
    # a numpy warning would print on stderr: pytest turns each into an error
    assert main(["poles", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    error = _error_line(capsys)
    assert error["type"] == "ConfigError" and message in error["message"]


def test_oversized_log_grid_is_a_config_error() -> None:
    with pytest.raises(ConfigError, match="more than"):
        TimeGrid.log(1e-3, 1e3, per_decade=MAX_TIME_SAMPLES)


@pytest.mark.parametrize("per_decade", [0, -5, 0.5])
def test_log_grid_below_one_point_per_decade_is_refused(per_decade: float) -> None:
    with pytest.raises(ConfigError, match="per_decade >= 1"):
        TimeGrid.log(0.05, 42.0, per_decade=per_decade)


@pytest.mark.parametrize("command", ["nonescape", "tail"])
@pytest.mark.parametrize("per_decade", [0, -5])
def test_log_grid_below_one_point_per_decade_is_a_config_error(
    tmp_path: Path, capsys: pytest.CaptureFixture, command: str, per_decade: int
) -> None:
    grid = {"kind": "log", "t_min": 0.05, "t_max": 2.0, "per_decade": per_decade}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_config(time_grid=grid)))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    error = _error_line(capsys)
    assert error["type"] == "ConfigError" and "per_decade >= 1" in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("value", [None, 5, ["a"], {"x": 1}, True, ""])
def test_output_dir_must_be_a_non_empty_string(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture, value
) -> None:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_config(output_dir=value)))
    monkeypatch.chdir(tmp_path)
    assert main(["poles", "--config", str(path)]) == 2
    error = _error_line(capsys)
    assert error["type"] == "ConfigError" and "output_dir" in error["message"]
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


def test_empty_out_flag_is_a_config_error(
    config_path: Path,
    tmp_path: Path,
    monkeypatch: pytest.MonkeyPatch,
    capsys: pytest.CaptureFixture,
) -> None:
    monkeypatch.chdir(tmp_path)
    assert main(["poles", "--config", str(config_path), "--out", ""]) == 2
    assert "output_dir" in _error_line(capsys)["message"]
    assert [p.name for p in tmp_path.iterdir()] == [config_path.name]


@pytest.mark.parametrize(
    "overrides, argv",
    [
        # 2.4e14 nodes: refused before numpy is asked for petabytes
        (
            {
                "potential": {"kind": "piecewise_constant", "pieces": [[0.0, 1.0, 0.0]]},
                "oracle_grid": {"box_size": 240.0, "dr": 1e-12, "dt": 0.0004, "t_final": 1.0},
            },
            [],
        ),
        # a valid 2,401-node grid refined past the cap: refused before the base run
        ({}, ["--refine", "100000"]),
    ],
)
def test_oversized_oracle_grid_is_a_config_error(
    tmp_path: Path, capsys: pytest.CaptureFixture, overrides: dict, argv: list[str]
) -> None:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_config(**overrides)))
    out = tmp_path / "out"
    assert main(["oracle", "--config", str(path), "--out", str(out), *argv]) == 2
    error = _error_line(capsys)
    assert error["type"] == "ConfigError" and "exceeds the cap of 10000000" in error["message"]
    assert not (out / "oracle.csv").exists()


@pytest.mark.parametrize(
    "dt, argv",
    [
        (1e-10, []),  # 1e10 steps
        (2.0**-24, []),  # 16,777,216 steps
        (2.0**-21, ["--refine", "8"]),  # 2**21 steps refined to 2**24: before the base run
    ],
)
def test_oracle_step_count_over_the_cap_is_a_config_error(
    tmp_path: Path, capsys: pytest.CaptureFixture, dt: float, argv: list[str]
) -> None:
    grid = {"box_size": 12.0, "dr": 0.005, "dt": dt, "t_final": 1.0}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_config(oracle_grid=grid)))
    out = tmp_path / "out"
    assert main(["oracle", "--config", str(path), "--out", str(out), *argv]) == 2
    error = _error_line(capsys)
    assert error["type"] == "ConfigError"
    assert "steps exceeds the cap of 10000000" in error["message"]
    assert not (out / "oracle.csv").exists()


@pytest.mark.parametrize(
    "command, overrides, message",
    [
        # about 3e8 zeros: refused before the strips are cut
        ("poles", {"pole_search": {"re_max": 1e9, "im_min": -3.0}}, "over the cap of 20480"),
        # 8,000 pairs: refused before the 16,000 x 16,000 overlap matrix
        (
            "tail",
            {"pole_search": {"re_max": 8000.5 * math.pi, "im_min": -6.0}, "truncations": [8000]},
            "8000 pole pairs exceed the cap of 2560",
        ),
    ],
)
def test_oversized_spectral_run_is_a_config_error(
    tmp_path: Path, capsys: pytest.CaptureFixture, command: str, overrides: dict, message: str
) -> None:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_config(**overrides)))
    out = tmp_path / "out"
    started = time.perf_counter()
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert time.perf_counter() - started < 30.0
    error = _error_line(capsys)
    assert error["type"] == "ConfigError" and message in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("width, strength", [(math.nan, math.nan), (math.nan, 0.0), (0.0, math.nan)])
def test_non_finite_absorber_is_a_config_error(
    tmp_path: Path, capsys: pytest.CaptureFixture, width: float, strength: float
) -> None:
    grid = {
        "box_size": 12.0, "dr": 0.005, "dt": 0.0004, "t_final": 1.0,
        "absorber_width": width, "absorber_strength": strength,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_config(oracle_grid=grid)))  # writes the NaN literal
    out = tmp_path / "out"
    assert main(["oracle", "--config", str(path), "--out", str(out)]) == 2
    error = _error_line(capsys)
    assert error["type"] == "ConfigError" and "must be finite" in error["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag",
    [("sumrule", "--r"), ("poles", "--config"), ("nonescape", "--nmax"),
     ("nonescape", "--tmin"), ("oracle", "--refine")],
)
def test_flag_given_a_double_dash_is_a_config_error(
    config_path: Path, tmp_path: Path, capsys: pytest.CaptureFixture, command: str, flag: str
) -> None:
    # argparse reads "--r=--" as the empty list [], past the flag's type
    out = tmp_path / "o"
    argv = [command, "--config", str(config_path), "--out", str(out), f"{flag}=--"]
    assert main(argv) == 2
    error = _error_line(capsys)
    assert error["type"] == "ConfigError"
    assert error["message"] == f"{flag} takes one value, got []"
    assert not out.exists()


@pytest.mark.parametrize(
    "command", ["poles", "expansion", "sumrule", "nonescape", "tail", "compare"]
)
@pytest.mark.parametrize("nmax", ["0", "-1"])
def test_nmax_below_one_is_a_config_error(
    config_path: Path, tmp_path: Path, capsys: pytest.CaptureFixture, command: str, nmax: str
) -> None:
    out = tmp_path / "o"
    assert main([command, "--config", str(config_path), "--out", str(out), "--nmax", nmax]) == 2
    error = _error_line(capsys)
    assert error["type"] == "ConfigError" and "--nmax" in error["message"]
    assert not out.exists()  # rejected before any output is written


# The flags each fuzzed command takes, with values drawn from and around
# their valid ranges.  The config is small (three poles), so each run takes
# milliseconds.
_SMALL_INTS = st.integers(-3, 8)
_TIMES_ARG = st.floats(allow_nan=True, allow_infinity=True) | st.floats(0.01, 5.0)
_FLAGS = {
    "poles": {"--nmax": _SMALL_INTS},
    "sumrule": {
        "--nmax": _SMALL_INTS,
        "--r": st.lists(st.floats(-1.0, 2.0) | st.sampled_from([math.nan, math.inf]), max_size=3)
        .map(lambda rs: ",".join(repr(r) for r in rs))
        | st.text("0123456789.,-ex", max_size=6),
    },
    "nonescape": {
        "--nmax": _SMALL_INTS,
        "--points": st.integers(-2, 12) | st.sampled_from([MAX_TIME_SAMPLES + 1, 10**12]),
        "--tmin": _TIMES_ARG,
        "--tmax": _TIMES_ARG,
    },
}


@st.composite
def _argv(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag, values in _FLAGS[command].items():
        if draw(st.booleans()):
            value = str(draw(values))
            # "--tmax -1e+16" is a usage error (argparse reads "-1e+16" as a
            # flag), "--tmax=-1e+16" is not
            argv.extend(draw(st.sampled_from([[f"{flag}={value}"], [flag, value]])))
    return argv


@settings(max_examples=60, deadline=None)
@given(argv=_argv())
def test_main_exits_0_1_or_2_with_one_json_error_line(argv: list[str]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(_config()))
        stdout, stderr = io.StringIO(), io.StringIO()
        # a numpy warning would print on stderr: pytest turns each into an error
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
    if code == 0:
        assert stderr.getvalue() == ""
    else:
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1, lines
        assert json.loads(lines[0])["error"]["exit_code"] == code


@pytest.mark.parametrize("t_max", ["1.7976931348622103e+308", "4.129797479570478e+306"])
def test_nonescape_out_to_the_largest_times(tmp_path: Path, capsys: pytest.CaptureFixture, t_max: str) -> None:
    # --points 2 puts a sample at t_max: geomspace's 10**log10(t_max) and
    # the Moshinsky argument's square overflow there, and neither may warn
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_config()))
    out = tmp_path / "out"
    argv = ["nonescape", "--points=2", f"--tmax={t_max}", "--config", str(path), "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    _, _, rows = _read_csv(out / "nonescape.csv")
    assert float(rows[-1]["t"]) == float(t_max)


_TAIL_GRID = {"kind": "log", "t_min": 0.05, "t_max": 42.0, "per_decade": 40}


def _tail_config(tmp_path: Path) -> Path:
    path = tmp_path / "run.json"
    cfg = _config(
        pole_search={"re_max": 127.5, "im_min": -3.0},
        truncations=[5, 10],
        time_grid=_TAIL_GRID,
    )
    path.write_text(json.dumps(cfg))
    return path


def test_tail_evaluates_each_series_once(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    # One P(t) pass covers every truncation: the largest truncation's series
    # opens the slope window, and each truncation's slope is the fit of its
    # own series, bit for bit (%.17g round-trips).
    import nonescape.cli as cli
    import nonescape.dynamics as dynamics

    calls: list[tuple[int, ...]] = []
    evaluate = dynamics.probability_sums

    def counted(data, grid, truncations):
        calls.append(tuple(truncations))
        return evaluate(data, grid, truncations)

    for module in (cli, dynamics):
        monkeypatch.setattr(module, "probability_sums", counted)
    path, out = _tail_config(tmp_path), tmp_path / "out"
    assert main(["tail", "--config", str(path), "--out", str(out)]) == 0
    assert calls == [(5, 10)]
    _, _, rows = _read_csv(out / "tail.csv")
    assert [row["N"] for row in rows] == ["5", "10"]
    run = SelftestContext(load_config(str(path)))
    grid = run.cfg.time_grid
    window = post_exponential_window(
        nonescape_probability(run.data, grid, n_pairs=10), run.pole_set.pole(1)
    )
    for row, n in zip(rows, (5, 10)):
        fit = slope_fit(nonescape_probability(run.data, grid, n_pairs=n), window)
        assert float(row["slope"]) == fit.slope
        assert float(row["slope_stderr"]) == fit.stderr


def test_tail_window_under_eight_samples_means_no_slopes(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    # On the packaged default cut at t = 20 the window opens at t ~ 18.9 with
    # two samples: too few to fit, so it counts as no window, and the study
    # columns are those of the full run to t = 42.
    raw = json.loads(
        resources.files("nonescape.data").joinpath("default_config.json").read_text()
    )
    tables = {}
    for t_max in (20.0, 42.0):
        raw["time_grid"]["t_max"] = t_max
        path, out = tmp_path / f"t{t_max:g}.json", tmp_path / f"t{t_max:g}"
        path.write_text(json.dumps(raw))
        assert main(["tail", "--config", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        tables[t_max] = _read_csv(out / "tail.csv")[2]
    short, full = tables[20.0], tables[42.0]
    assert all(row["slope"] == row["slope_stderr"] == "nan" for row in short)
    assert all(row["slope"] != "nan" for row in full)
    study = ("N", "D1_sum", "D1_integral", "sumrule_L2", "crossover_t")
    assert [[row[k] for k in study] for row in short] == [
        [row[k] for k in study] for row in full
    ]


# Forced failures: a doctored expansion makes chosen truncations fail their
# per-sample checks, so the error order of ``tail`` and ``nonescape`` shows.
_T0 = _TAIL_GRID["t_min"]
_TIMES = TimeGrid.log(_T0, _TAIL_GRID["t_max"], _TAIL_GRID["per_decade"])


def _skewed(data, position: int, size: float, sign: float = 1.0):
    """Add i*sign*size/|w(t0)|^2 to one diagonal overlap entry (a copy)."""
    w0 = data.coefficients[position] * moshinsky(data.states.k[position], _T0)
    overlap = data.overlap.copy()
    overlap[position, position] += 1j * sign * size / abs(w0) ** 2
    return dataclasses.replace(data, overlap=overlap)


def _outer_fails(data):
    # a skew on n = -N: only the largest truncation holds it
    return _skewed(data, 0, 1e-3)


def _skewed_inner(data):
    # a skew on n = 1: every truncation holds it
    return _skewed(data, data.n_pairs, 1e-3)


def _inner_fails(data):
    # a skew on n = 2, cancelled in the largest truncation by the opposite
    # skew on n = -N, which is made a copy of n = 2 (k through the state table)
    big = data.n_pairs
    wavenumbers, coefficients = data.states.k.copy(), data.coefficients.copy()
    wavenumbers[0], coefficients[0] = wavenumbers[big + 1], coefficients[big + 1]
    states = dataclasses.replace(data.states, k=wavenumbers)
    copied = dataclasses.replace(data, states=states, coefficients=coefficients)
    return _skewed(_skewed(copied, big + 1, 1e-3), 0, 1e-3, sign=-1.0)


def _late_inner_fails(data):
    # a skew on n = 1 cancelled at t0 by one on n = 5: it grows as n = 5
    # decays faster, so N = 5 first fails after t0
    big = data.n_pairs
    i1, i5 = big, big + 4
    w = data.coefficients[[i1, i5]] * moshinsky(data.states.k[[i1, i5]], _T0)
    overlap = data.overlap.copy()
    overlap[i1, i1] += 1.0j
    overlap[i5, i5] -= 1.0j * abs(w[0]) ** 2 / abs(w[1]) ** 2
    return dataclasses.replace(data, overlap=overlap)


def _doctor(monkeypatch: pytest.MonkeyPatch, **by_mode) -> None:
    """Doctor the expansion whose P(t) the CLI sums, by overlap mode: the
    pass with closed overlaps comes first, then the one with quadrature."""
    import nonescape.cli as cli

    evaluate = cli.probability_sums
    modes = iter(("closed", "quadrature"))

    def doctored(data, grid, truncations):
        mode = next(modes)
        return evaluate(by_mode[mode](data) if mode in by_mode else data, grid, truncations)

    monkeypatch.setattr(cli, "probability_sums", doctored)


def _error_line(capsys: pytest.CaptureFixture) -> dict:
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])["error"]


def _raised(data, n_pairs: int) -> str:
    with pytest.raises(TruncationUnstable) as info:
        nonescape_probability(data, _TIMES, n_pairs=n_pairs)
    return str(info.value)


def _passes(data, n_pairs: int) -> None:
    nonescape_probability(data, _TIMES, n_pairs=n_pairs)


def test_tail_largest_truncation_failing_means_no_slope_window(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture,
    data,
) -> None:
    doctored = _outer_fails(data.truncate(10))
    _passes(doctored, 5)
    _raised(doctored, 10)
    _doctor(monkeypatch, closed=_outer_fails)
    out = tmp_path / "out"
    assert main(["tail", "--config", str(_tail_config(tmp_path)), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    _, _, rows = _read_csv(out / "tail.csv")
    assert [row["N"] for row in rows] == ["5", "10"]
    assert all(math.isnan(float(row["slope"])) for row in rows)
    assert all(math.isfinite(float(row["D1_sum"])) for row in rows)


def test_tail_smaller_truncation_failing_exits_1(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture,
    data,
) -> None:
    doctored = _inner_fails(data.truncate(10))
    _passes(doctored, 10)
    _doctor(monkeypatch, closed=_inner_fails)
    out = tmp_path / "out"
    assert main(["tail", "--config", str(_tail_config(tmp_path)), "--out", str(out)]) == 1
    error = _error_line(capsys)
    assert error["type"] == "TruncationUnstable" and error["exit_code"] == 1
    assert error["message"] == _raised(doctored, 5)
    assert error["message"].startswith(f"imaginary residual 1.000e-03 at t = {_T0:g} ")


def test_nonescape_raises_truncations_in_order_before_times(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture,
    data,
) -> None:
    # N = 10 fails at t0, N = 5 only later: N = 5 is reported
    doctored = _late_inner_fails(_outer_fails(data.truncate(10)))
    late = _raised(doctored, 5)
    assert f"at t = {_T0:g} " not in late and f"at t = {_T0:g} " in _raised(doctored, 10)
    _doctor(monkeypatch, closed=lambda d: _late_inner_fails(_outer_fails(d)))
    path = _tail_config(tmp_path)
    assert main(["nonescape", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    error = _error_line(capsys)
    assert error["type"] == "TruncationUnstable" and error["message"] == late


def test_nonescape_raises_modes_in_order_before_truncations(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture,
    data,
) -> None:
    # closed fails at N = 10 only, quadrature already at N = 5: closed is
    # reported
    closed = _outer_fails(data.truncate(10))
    _passes(closed, 5)
    first = _raised(closed, 10)
    quadrature = dataclasses.replace(
        data.truncate(10),
        overlap=overlap_matrix(data.truncate(10).states, "quadrature"),
    )
    assert _raised(_skewed_inner(quadrature), 5) != first
    _doctor(monkeypatch, closed=_outer_fails, quadrature=_skewed_inner)
    path = _tail_config(tmp_path)
    assert main(["nonescape", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    error = _error_line(capsys)
    assert error["type"] == "TruncationUnstable" and error["message"] == first


def test_tail_table_columns(config_path: Path, tmp_path: Path) -> None:
    out = tmp_path / "out"
    assert main(["tail", "--config", str(config_path), "--out", str(out)]) == 0
    _, header, rows = _read_csv(out / "tail.csv")
    assert header == [
        "N",
        "D1_sum",
        "D1_integral",
        "sumrule_L2",
        "crossover_t",
        "slope",
        "slope_stderr",
    ]
    assert [row["N"] for row in rows] == ["2", "3"]
    d1 = [float(row["D1_sum"]) for row in rows]
    assert d1[1] < d1[0]
    np.testing.assert_allclose(
        [float(row["D1_integral"]) for row in rows], d1, rtol=1e-6
    )
    cross = [float(row["crossover_t"]) for row in rows]
    assert cross[0] < cross[1]
    # The configured window never leaves the exponential stage, so no slope
    # can be fit; the columns are still present, filled with nan.
    assert all(row["slope"] == "nan" for row in rows)


def test_oracle_horizon_flag(config_path: Path, tmp_path: Path) -> None:
    out = tmp_path / "out"
    assert main(["oracle", "--config", str(config_path), "--out", str(out)]) == 0
    _, header, rows = _read_csv(out / "oracle.csv")
    assert header == ["t", "p", "norm", "horizon_flag"]
    flags = [int(row["horizon_flag"]) for row in rows]
    assert set(flags) == {0, 1}  # contamination reached the far wall mid-run
    assert flags == sorted(flags)  # once set, stays set
    norms = [float(row["norm"]) for row in rows]
    assert max(abs(n - 1.0) for n in norms) <= 1e-8  # no absorber: unitary
    p = [float(row["p"]) for row in rows]
    assert p[0] == pytest.approx(1.0, abs=1e-6)
    assert p[-1] < p[0]


def test_oracle_refinement_study(config_path: Path, tmp_path: Path) -> None:
    out = tmp_path / "out"
    rc = main(
        ["oracle", "--config", str(config_path), "--out", str(out), "--refine", "2"]
    )
    assert rc == 0
    _, header, rows = _read_csv(out / "refinement.csv")
    assert header == ["factor", "max_abs_dev", "max_rel_dev", "tolerance", "flagged"]
    assert len(rows) == 1
    assert rows[0]["factor"] == "2"
    assert float(rows[0]["max_rel_dev"]) < 1e-2
    assert (out / "oracle.csv").exists()


def test_compare_verdict_degrades_gracefully(config_path: Path, tmp_path: Path) -> None:
    # On this small box the far wall is contaminated long before the
    # exponential stage ends, so compare must say "no adjudication" rather
    # than fit a slope in a meaningless window.
    out = tmp_path / "out"
    assert main(["compare", "--config", str(config_path), "--out", str(out)]) == 0
    _, header, rows = _read_csv(out / "compare.csv")
    assert header == [
        "t",
        "p_direct",
        "p_expansion_n2",
        "rel_dev_n2",
        "p_expansion_n3",
        "rel_dev_n3",
    ]
    assert len(rows) > 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"].startswith("no adjudication")
    assert summary["window"] is None
    assert summary["slope_direct"] is None
    assert set(summary["d1"]) == {"2", "3"}
    assert summary["d1"]["3"] < summary["d1"]["2"]
    assert summary["crossover"]["2"] < summary["crossover"]["3"]
    assert summary["max_rel_dev_lifetime_window"] <= 0.05
    assert summary["units"] == "hbar=2m=1"


def _short_config(tmp_path: Path) -> Path:
    """The packaged default on CI's short oracle grid: box 20, absorber 10,
    t <= 3.2."""
    raw = copy.deepcopy(_DEFAULT_CONFIG)
    raw["oracle_grid"].update(box_size=20.0, absorber_width=10.0, t_final=3.2)
    raw["time_grid"]["t_max"] = 3.2
    path = tmp_path / "short.json"
    path.write_text(json.dumps(raw))
    return path


def _spy(monkeypatch: pytest.MonkeyPatch, module: str, name: str) -> list[int]:
    """Count the calls to ``module.name`` through every package module that
    binds it; one entry per call."""
    original = getattr(sys.modules[f"nonescape.{module}"], name)
    calls: list[int] = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for key, bound in list(sys.modules.items()):
        if key.startswith("nonescape.") and getattr(bound, name, None) is original:
            monkeypatch.setattr(bound, name, counted)
    return calls


_STAGES = (("poles", "locate_poles"), ("gamow", "build_expansion"), ("oracle", "evolve_tdse"))


def test_compare_writes_the_verdict_checks_7_and_8_judge(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    # compare reads one run: each stage is built once, and summary.json
    # holds the verdict SelftestContext makes, which checks 7 and 8 read
    path = _short_config(tmp_path)
    calls = {name: _spy(monkeypatch, module, name) for module, name in _STAGES}
    out = tmp_path / "out"
    assert main(["compare", "--config", str(path), "--out", str(out)]) == 0
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(calls, 1)
    verdict = SelftestContext(load_config(str(path))).verdict
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"] == verdict.text
    assert summary["window"] == (None if verdict.window is None else list(verdict.window))
    assert summary["max_rel_dev_lifetime_window"] == verdict.lifetime_dev


def test_tail_builds_the_pole_table_and_expansion_once(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    calls = {name: _spy(monkeypatch, module, name) for module, name in _STAGES}
    path = _short_config(tmp_path)
    assert main(["tail", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert {name: len(c) for name, c in calls.items()} == {
        "locate_poles": 1, "build_expansion": 1, "evolve_tdse": 0
    }


def test_default_config_is_packaged(tmp_path: Path) -> None:
    cfg = load_config(None)
    assert cfg.truncations == (5, 10, 20, 40)
    assert cfg.potential.strength == 6.0
    assert cfg.potential.radius == 1.0
    assert cfg.psi0.mode == 1
    out = tmp_path / "out"
    assert main(["poles", "--nmax", "1", "--out", str(out)]) == 0
    _, _, rows = _read_csv(out / "poles.csv")
    assert len(rows) == 1
    assert rows[0]["re_k"] == _K1


def test_selftest_parser_takes_no_config() -> None:
    parser = build_parser()
    args = parser.parse_args(["selftest", "--quiet"])
    assert args.quiet
    with pytest.raises(ConfigError, match="unrecognized arguments: --config"):
        parser.parse_args(["selftest", "--config", "x.json"])
    with pytest.raises(ConfigError, match="required"):
        parser.parse_args([])  # a subcommand is required


# Each subcommand's flags, in the order -h lists them.
_OPTIONS = {
    "poles": ["-h", "--help", "--config", "--out", "--nmax"],
    "expansion": ["-h", "--help", "--config", "--out", "--nmax"],
    "sumrule": ["-h", "--help", "--config", "--out", "--nmax", "--r"],
    "nonescape": ["-h", "--help", "--config", "--out", "--nmax", "--tmin", "--tmax", "--points"],
    "tail": ["-h", "--help", "--config", "--out", "--nmax", "--tmin", "--tmax", "--points"],
    "oracle": ["-h", "--help", "--config", "--out", "--tmin", "--tmax", "--points", "--refine"],
    "compare": ["-h", "--help", "--config", "--out", "--nmax", "--tmin", "--tmax", "--points"],
    "selftest": ["-h", "--help", "--quiet"],
}


def test_subcommand_option_lists_are_pinned() -> None:
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: [flag for action in p._actions for flag in action.option_strings]
        for name, p in sub.choices.items()
    }
    assert options == _OPTIONS


_TIMED = ("nonescape", "tail", "oracle", "compare")
_CAPPED = ("poles", "expansion", "sumrule", "nonescape", "tail", "compare")
_BAD_TIMES = (
    ["--tmin", "5", "--tmax", "1", "--points", "10"],
    ["--tmin", "1e9", "--tmax", "2e9"],
    ["--points", "0"],
)
# (command, flags, config overrides) that exit 2
_EXIT_2 = [
    *[(command, argv, {}) for command in _TIMED for argv in _BAD_TIMES],
    ("oracle", ["--refine", "1"], {}),
    *[(command, ["--nmax", "0"], {}) for command in _CAPPED],
    ("sumrule", ["--r", "1.5"], {}),
    *[(command, [], {"r_points": [5.0]}) for command in (*_CAPPED, "oracle")],
]


@pytest.mark.parametrize(
    "command, argv, overrides",
    _EXIT_2,
    ids=[f"{c}{''.join(a) or '-r_points'}" for c, a, _ in _EXIT_2],
)
def test_exit_2_leaves_no_output_directory(
    tmp_path: Path,
    capsys: pytest.CaptureFixture,
    command: str,
    argv: list[str],
    overrides: dict,
) -> None:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_config(**overrides)))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out), *argv]) == 2
    assert _error_line(capsys)["type"] == "ConfigError"
    assert not out.exists()


@pytest.mark.parametrize("command", ["poles", "tail"])
@pytest.mark.parametrize("below", ["sub", ""])
def test_unwritable_output_is_a_config_error(
    config_path: Path, tmp_path: Path, capsys: pytest.CaptureFixture, command: str, below: str
) -> None:
    # a regular file where the output directory, or one of its parents,
    # should be: mkdir fails whatever the permissions (tests may run as root)
    blocker = tmp_path / "afile"
    blocker.write_text("")
    out = blocker / below if below else blocker
    assert main([command, "--config", str(config_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, lines
    error = json.loads(lines[0])["error"]
    assert error["type"] == "ConfigError" and error["exit_code"] == 2
    assert str(out / f"{command}.csv") in error["message"]
    assert blocker.read_text() == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["nonescape", "--tmax", "-1e+16"],
        ["poles", "--nmax", "x"],
        ["tail", "--points", "1.5"],
        ["oracle", "--refine"],
        ["sumrule", "--bogus", "1"],
        ["selftest", "--config", "x.json"],
        ["frobnicate"],
        [],
    ],
)
def test_usage_errors_are_one_json_line(
    argv: list[str], capsys: pytest.CaptureFixture
) -> None:
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, lines
    error = json.loads(lines[0])["error"]
    assert error["type"] == "ConfigError" and error["exit_code"] == 2
    assert error["message"].startswith("nonescape")


@pytest.mark.parametrize("argv", [["-h"], ["poles", "--help"], ["selftest", "-h"]])
def test_help_prints_usage_and_exits_0(argv: list[str], capsys: pytest.CaptureFixture) -> None:
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: nonescape") and captured.err == ""


@pytest.mark.parametrize("radii", ["1.5", "0.25,-0.1", "nan", "inf"])
def test_sumrule_radius_outside_range_is_a_config_error(
    radii: str, config_path: Path, tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    out = tmp_path / "out"
    argv = ["sumrule", "--config", str(config_path), "--out", str(out), f"--r={radii}"]
    assert main(argv) == 2
    error = _error_line(capsys)
    assert error["type"] == "ConfigError" and "outside [0, R = 1]" in error["message"]
    assert not out.exists()  # rejected before any output is written


@pytest.mark.parametrize("radii", [[1.5], [0.25, -0.1], [0.0, 1.0000001]])
def test_config_radius_outside_range_is_a_config_error(
    radii: list[float], tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_config(r_points=radii)))
    out = tmp_path / "out"
    assert main(["sumrule", "--config", str(path), "--out", str(out)]) == 2
    error = _error_line(capsys)
    assert error["type"] == "ConfigError" and "outside [0, R = 1]" in error["message"]
    assert not out.exists()


def test_console_script_entry_point(config_path: Path, tmp_path: Path) -> None:
    exe = shutil.which("nonescape")
    cmd = [exe] if exe else [sys.executable, "-m", "nonescape.cli"]
    out = tmp_path / "out"
    proc = subprocess.run(
        cmd + ["poles", "--config", str(config_path), "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith("poles.csv")
    assert (out / "poles.csv").exists()


_IMPORT_PROBE = """
import json, sys
import nonescape.cli
loaded = ["scipy.special" in sys.modules]
for command in sys.argv[3:]:
    if nonescape.cli.main([command, "--config", sys.argv[1], "--out", sys.argv[2] + command]):
        sys.exit(f"{command} failed")
    loaded.append("scipy.special" in sys.modules)
print(json.dumps(loaded))
"""


def test_scipy_special_loaded_only_by_faddeeva_commands(tmp_path: Path) -> None:
    # A fresh interpreter: the package, oracle and poles leave
    # scipy.special unloaded, and nonescape's Moshinsky evaluation loads it.
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_config(
        oracle_grid={"box_size": 12.0, "dr": 0.005, "dt": 0.0004, "t_final": 0.04},
    )))
    import nonescape

    src = str(Path(nonescape.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _IMPORT_PROBE, str(path), str(tmp_path / "out-"),
         "oracle", "poles", "nonescape"],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [False, False, False, True]


def test_non_finite_matching_function_exits_1_without_warnings(tmp_path: Path) -> None:
    # V on [0.5, 1].  Under -W error a numpy warning would end in a traceback.
    cases = [
        # J overflows on the whole contour
        (1.0e8, "DomainError", "J is not finite near k = "),
        # |J| reaches 1.8e308 on the contour; the phase step's ratio of two
        # such values overflowed before they were scaled
        (1.98e6, "AxisZero", "J vanishes on a coordinate axis near k = "),
    ]
    for height, kind, message in cases:
        path = tmp_path / f"barrier-{height:g}.json"
        barrier = {"kind": "piecewise_constant", "pieces": [[0.0, 0.5, 0.0], [0.5, 1.0, height]]}
        path.write_text(json.dumps(_config(
            potential=barrier,
            initial_state={"kind": "box_mode", "mode": 1, "radius": 0.5},
            pole_search={"re_max": 40.0, "im_min": -3.0},
        )))
        out = tmp_path / f"out-{height:g}"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "nonescape.cli", "poles",
             "--config", str(path), "--out", str(out)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 1, height
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        error = json.loads(lines[0])["error"]
        assert error["type"] == kind and error["exit_code"] == 1
        assert error["message"].startswith(message)
        assert not out.exists()


_GRID = {"box_size": 12.0, "dr": 0.005, "dt": 0.0004, "t_final": 1.0}


@pytest.mark.parametrize(
    "command, overrides, argv, message",
    [
        # a node or step count that overflows a float: round() raised OverflowError
        ("oracle", {"oracle_grid": {**_GRID, "box_size": 1e308}}, [], "box_size / dr overflows"),
        ("compare", {"oracle_grid": {**_GRID, "dr": 1e-320}}, [], "box_size / dr overflows"),
        ("oracle", {"oracle_grid": {**_GRID, "t_final": 1e308}}, [], "t_final / dt overflows"),
        ("compare", {"oracle_grid": {**_GRID, "dt": 1e-320}}, [], "t_final / dt overflows"),
        # dr / 10**400 raised OverflowError
        ("oracle", {}, ["--refine", "1" + "0" * 400], "refinement factor must be >= 2 and <="),
        # poles exited 0, then 10**400 pi / R raised OverflowError
        (
            "expansion",
            {"initial_state": {"kind": "box_mode", "mode": 10**400, "radius": 1.0}},
            [],
            "box mode wavenumber m pi / R must be a finite float",
        ),
        # the first contour pass: an invalid cast of 2e100 samples, then overflow
        ("poles", {"pole_search": {"re_max": 12.0, "im_min": -1e100}}, [], "edge over 400000"),
        ("poles", {"pole_search": {"re_max": 12.0, "im_min": -1e308}}, [], "edge over 400000"),
        # a float value given as an integer past the largest double: float()
        # raised OverflowError
        (
            "poles",
            {"potential": {"kind": "delta_shell", "strength": 10**400, "radius": 1.0}},
            [],
            "strength overflows a float",
        ),
        (
            "poles",
            {"pole_search": {"re_max": 12.0, "im_min": -2.0, "tol": 10**400}},
            [],
            "tol overflows a float",
        ),
        (
            "poles",
            {"time_grid": {"kind": "log", "t_min": 10**400, "t_max": 2.0, "per_decade": 12}},
            [],
            "t_min overflows a float",
        ),
        ("poles", {"r_points": [0.25, 10**400, 0.75]}, [], "r_points overflows a float"),
        # counts off an integer multiple: only the oracle's runs refused them
        (
            "poles",
            {"oracle_grid": {**_GRID, "box_size": 240.001}},
            [],
            "box_size must be an integer multiple of dr",
        ),
        (
            "poles",
            {"oracle_grid": {**_GRID, "t_final": 1.0001}},
            [],
            "t_final must be an integer multiple of dt",
        ),
    ],
)
def test_overflowing_inputs_exit_2_without_warnings(
    tmp_path: Path, command: str, overrides: dict, argv: list[str], message: str
) -> None:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_config(**overrides)))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "nonescape.cli", command,
         "--config", str(path), "--out", str(out), *argv],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    error = json.loads(lines[0])["error"]
    assert error["type"] == ("InvalidState" if command == "expansion" else "ConfigError")
    assert message in error["message"]
    assert not out.exists()


def test_csv_cells_keep_the_bytes_of_the_isinstance_chain(tmp_path: Path) -> None:
    # Each cell's format is looked up by the value's type; the bytes are
    # those of the isinstance chain, through the same csv.writer quoting.
    floats = [0.1, -0.0, 0.0, math.nan, math.inf, -math.inf, 1e-310, 2.0**60, 1 / 3]
    ints = [0, -7, 2**70, True, False]
    numpy_values = [np.float64(v) for v in floats] + [
        np.float32(0.1), np.float16(-2.5), np.longdouble(0.1), np.int64(-3), np.int32(5),
        np.uint8(200), np.bool_(True), np.bool_(False), np.complex128(1 - 2j), np.str_("x"),
    ]
    strings = ["closed", "a,b", 'say "hi"', "", "line\nbreak"]
    values = floats + ints + numpy_values + strings + [None, 1 + 2j]
    rows = [values[i : i + 5] for i in range(0, len(values), 5)]
    cfg = dataclasses.replace(load_config(None), output_dir=str(tmp_path))
    with contextlib.redirect_stdout(io.StringIO()):
        _write_csv("cells.csv", cfg, "test", ("a", "b", "c", "d", "e"), iter(rows))
    expected = io.StringIO()
    expected.write(f"# nonescape test\n# config_hash: {cfg.digest}\n# units: {_UNITS_NOTE}\n")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(("a", "b", "c", "d", "e"))
    writer.writerows([csv_cell_chain(v) for v in row] for row in rows)
    assert (tmp_path / "cells.csv").read_bytes() == expected.getvalue().encode()
