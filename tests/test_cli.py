import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from ou_spectral import ConfigError, cli, errors, linalg, verify
from ou_spectral.ladder import build_model
from ou_spectral.spectral import solve_inhomogeneous

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, name="model.json", **overrides):
    raw = {
        "dimension": 1,
        "A": [[-1.0]],
        "B": [[1.0]],
        "max_order": 4,
    }
    raw.update(overrides)
    raw = {k: v for k, v in raw.items() if v is not None}
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


# ---- config loading ----


def test_load_config_roundtrip(tmp_path):
    path = write_config(
        tmp_path,
        initial={"mean": [0.5], "cov": [[0.5]]},
        sim={"paths": 100, "dt": 0.01, "t_final": 0.5, "seed": 3},
        tolerances={"residual_tol": 1e-7},
        propagate={"times": [0.2, 0.9], "grid": {"lo": -2.0, "hi": 2.0, "points": 11}},
        source={"terms": [[[1], [1.0, 0.0]]]},
    )
    cfg = cli.load_config(path)
    assert cfg.dimension == 1
    assert cfg.A[0, 0] == -1.0
    assert cfg.max_order == 4
    assert cfg.tolerances["residual_tol"] == 1e-7
    assert cfg.tolerances["defect_tol"] == 1e-9
    assert cfg.initial[0][0] == 0.5
    assert cfg.sim.paths == 100
    assert cfg.times == [0.2, 0.9]
    assert cfg.grid_points == 11
    assert cfg.source == {(1,): 1.0 + 0.0j}


@pytest.mark.parametrize(
    "key, function, parameter",
    [
        ("defect_tol", build_model, "tol"),
        ("defect_tol", linalg.biorthogonal_eig, "tol"),
        ("prune_eps", build_model, "prune_eps"),
        ("residual_tol", verify.run_all, "residual_tol"),
        ("residual_tol", verify.biorthogonality_suite, "tol"),
        ("residual_tol", verify.eigen_residual_suite, "tol"),
        ("solvability_tol", solve_inhomogeneous, "solvability_tol"),
    ],
)
def test_config_tolerance_defaults_are_the_library_defaults(tmp_path, key, function, parameter):
    # A config that sets no tolerance runs as the library call that
    # passes none.
    cfg = cli.load_config(write_config(tmp_path))
    default = inspect.signature(function).parameters[parameter].default
    assert cfg.tolerances[key] == default
    assert cli._TOL_DEFAULTS[key] is default


@pytest.mark.parametrize(
    "overrides, needle",
    [
        ({"dimension": None}, "config field 'dimension': missing"),
        ({"A": None}, "config field 'A': missing"),
        ({"B": None}, "config field 'B': missing"),
        ({"dimension": 2}, "expected a 2x2 matrix"),
        ({"A": [[1.0, 2.0]]}, "row 0 is not a list of 1 numbers"),
        ({"A": [["x"]]}, "expected a number, got str"),
        ({"max_order": -1}, "must be at least 0"),
        ({"max_order": True}, "expected an integer, got bool"),
        ({"extra_knob": 1}, "unknown config field 'extra_knob'"),
        ({"tolerances": {"frobnicate": 1e-9}}, "unknown tolerance name"),
        ({"tolerances": {"residual_tol": -1e-9}}, "must be positive"),
        ({"initial": {"mean": [0.0]}}, "needs both 'mean' and 'cov'"),
        ({"sim": {"paths": 10, "dt": 0.01, "t_final": 1.0}}, "sim.seed"),
        (
            {"sim": {"paths": 10, "dt": 0.5, "t_final": 0.1, "seed": 1}},
            "t_final must be at least dt",
        ),
        ({"propagate": {"times": []}}, "nonempty list of times"),
        ({"propagate": {"times": [-0.5]}}, "times must be nonnegative"),
        ({"propagate": {"grid": {"lo": 2.0, "hi": -2.0}}}, "lo must be below hi"),
        ({"source": {"terms": [[[1], [1.0]]]}}, "source.terms[0]"),
        ({"source": {"terms": [[[-1], [1.0, 0.0]]]}}, "must be at least 0"),
        (
            {"sim": {"paths": 2, "dt": 0.01, "t_final": 0.5, "seed": 1}},
            "config field 'sim.paths': must be at least 3",
        ),
        ({"tolerances": [1]}, "config field 'tolerances': expected an object"),
        ({"tolerances": "x"}, "config field 'tolerances': expected an object"),
        ({"tolerances": []}, "config field 'tolerances': expected an object"),
        ({"initial": [0.0]}, "config field 'initial': expected an object with 'mean' and 'cov'"),
        ({"sim": 3}, "config field 'sim': expected an object"),
        ({"propagate": []}, "config field 'propagate': expected an object"),
        ({"propagate": {"grid": []}}, "config field 'propagate.grid': expected an object"),
        ({"propagate": {"grid": 0}}, "config field 'propagate.grid': expected an object"),
        ({"source": [1]}, "config field 'source': expected an object with a 'terms' list"),
        ({"source": {"terms": 5}}, "'source': expected an object with a 'terms' list"),
        ({"source": {"terms": {}}}, "'source': expected an object with a 'terms' list"),
    ],
)
def test_load_config_rejects(tmp_path, capsys, overrides, needle):
    path = write_config(tmp_path, **overrides)
    with pytest.raises(ConfigError) as excinfo:
        cli.load_config(path)
    assert needle in str(excinfo.value)
    # Every subcommand reads the whole config first: a config error, exit 2.
    for command in cli._COMMANDS:
        assert cli.main([command, path]) == 2, command
        assert f"error[config]: {excinfo.value}" in capsys.readouterr().err


def test_load_config_reads_a_null_block_as_absent(tmp_path):
    path = Path(write_config(tmp_path))
    want, raw = cli.load_config(str(path)), json.loads(path.read_text())
    blocks = ("tolerances", "initial", "sim", "propagate", "source")
    for nulls in (dict.fromkeys(blocks), {"propagate": {"grid": None}}):
        path.write_text(json.dumps(raw | nulls))
        got = cli.load_config(str(path))
        for name in ("tolerances", "initial", "sim", "source", "times", "grid_lo", "grid_hi"):
            assert getattr(got, name) == getattr(want, name), name
        assert got.grid_points == want.grid_points


def test_load_config_parse_error_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dimension": 1,\n  "A": [[-1.0]],,\n}')
    with pytest.raises(ConfigError) as excinfo:
        cli.load_config(path)
    assert "line 2" in str(excinfo.value)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        cli.load_config(str(tmp_path / "nope.json"))


def test_load_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    # A UTF-16 byte-order mark: json never saw the text, and the decode
    # error escaped as a traceback with exit 1.
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ConfigError, match="cannot read config"):
        cli.load_config(str(path))
    assert cli.main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error[config]: cannot read config {path}: ")
    assert captured.err.count("\n") == 1


def test_grid_size_cap(tmp_path):
    path = write_config(
        tmp_path,
        dimension=3,
        A=[[-1.0, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, -3.0]],
        B=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        propagate={"grid": {"points": 100}},
    )
    with pytest.raises(ConfigError, match="too many"):
        cli.load_config(path)


def _five_dim_config(tmp_path, **overrides):
    eye = np.eye(5).tolist()
    return write_config(
        tmp_path,
        dimension=5,
        A=(-np.diag([1.0, 1.5, 2.0, 2.5, 3.0])).tolist(),
        B=eye,
        max_order=2,
        **overrides,
    )


def test_default_grid_over_the_cap_fails_propagate_without_building_it(
    tmp_path, capsys, monkeypatch
):
    # Without a propagate block, a 5-D config takes the default 21 points
    # per axis: 21^5 = 4 084 101 points, over the cap that a block with the
    # same grid meets at load.
    path = _five_dim_config(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(cli.np, "meshgrid", refuse)
    out_json = tmp_path / "prop.json"
    assert cli.main(["propagate", path, "--json", str(out_json)]) == 2
    err = capsys.readouterr().err
    assert "error[config]" in err and "propagate.grid.points" in err and "too many" in err
    assert not out_json.exists()


def test_default_grid_over_the_cap_leaves_the_other_commands(tmp_path, capsys):
    path = _five_dim_config(
        tmp_path,
        sim={"paths": 50, "dt": 0.05, "t_final": 0.2, "seed": 3},
        source={"terms": [[[1, 0, 0, 0, 0], [1.0, 0.0]]]},
    )
    for command in ("verify", "eigensystem", "solve", "mc-check"):
        assert cli.main([command, path]) == 0, command
    capsys.readouterr()


def _three_dim_config(tmp_path, max_order, **overrides):
    return write_config(
        tmp_path,
        dimension=3,
        A=(-np.diag([1.0, 2.0, 3.0])).tolist(),
        B=np.eye(3).tolist(),
        max_order=max_order,
        **overrides,
    )


@pytest.mark.parametrize("command", ["verify", "eigensystem", "propagate"])
def test_max_order_over_the_bound_fails_without_building_a_model(
    tmp_path, capsys, monkeypatch, command
):
    # n = 3, max_order = 30: C(33, 3) = 5456 modes, whose square complex
    # eigenfunction tables take 476 MB each.  The command must refuse the
    # config before it builds the model.
    path = _three_dim_config(tmp_path, 30)

    def refuse(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr(cli, "build_model", refuse)
    out_json = tmp_path / "out.json"
    assert cli.main([command, path, "--json", str(out_json)]) == 2
    err = capsys.readouterr().err
    assert "error[config]" in err and "'max_order'" in err and "5456 modes" in err
    assert not out_json.exists()


def test_max_order_over_the_bound_leaves_solve_and_mc_check(tmp_path, capsys):
    path = _three_dim_config(
        tmp_path,
        30,
        sim={"paths": 50, "dt": 0.05, "t_final": 0.2, "seed": 3},
        source={"terms": [[[1, 0, 0], [1.0, 0.0]]]},
    )
    for command in ("solve", "mc-check"):
        assert cli.main([command, path]) == 0, command
    capsys.readouterr()


@pytest.mark.parametrize("command, field", [("solve", "source"), ("mc-check", "sim")])
def test_a_missing_block_fails_before_the_model_is_built(
    tmp_path, capsys, monkeypatch, command, field
):
    # The drift diag(1, -1) is unstable, so a model built first fails with
    # UnstableDriftError and hides the missing block.
    path = write_config(tmp_path, dimension=2, A=[[1.0, 0.0], [0.0, -1.0]], B=np.eye(2).tolist())
    assert cli.main([command, path]) == 2
    err = capsys.readouterr().err
    assert f"error[config]: config field '{field}': missing" in err

    def refuse(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr(cli, "build_model", refuse)
    path = write_config(tmp_path, "stable.json")
    assert cli.main([command, path]) == 2
    assert f"config field '{field}': missing" in capsys.readouterr().err


def test_max_order_bound_admits_the_measured_sizes(tmp_path):
    # Every shipped config, and the largest sizes measured so far: n = 5 at
    # order 7 (792 modes) and n = 6 at order 6 (924 modes).
    paths = sorted(str(path) for path in CONFIGS.glob("*.json"))
    for n, order in ((1, 40), (5, 7), (6, 6), (6, 7)):
        eye = np.eye(n).tolist()
        name, A = f"n{n}-{order}.json", (-np.eye(n)).tolist()
        paths.append(write_config(tmp_path, name, dimension=n, A=A, B=eye, max_order=order))
    for path in paths[:-1]:
        cli._check_order(cli.load_config(path))
    # C(13, 6) = 1716 modes.
    with pytest.raises(ConfigError, match="max_order"):
        cli._check_order(cli.load_config(paths[-1]))


@pytest.mark.parametrize("order", [151, 172])
@pytest.mark.parametrize("command", ["eigensystem", "verify", "propagate"])
def test_an_order_whose_normalization_overflows_exits_2(tmp_path, capsys, command, order):
    # 2^151 151! overflows a float.  From order 171, float(171!) raised an
    # untyped OverflowError (exit 1, a traceback); below it, propagate
    # divided by inf, zeroed those modes and exited 0.
    path = write_config(tmp_path, max_order=order)
    out = tmp_path / "out.json"
    assert cli.main([command, path, "--json", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error[NonFiniteResultError]" in err and "K=(151,)" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("propagate", {"propagate": {"times": [1e300]}}),
        ("mc-check", {"sim": {"paths": 100, "dt": 1e299, "t_final": 1e300, "seed": 1}}),
    ],
)
def test_an_exact_flow_that_is_not_finite_exits_2(tmp_path, capsys, command, overrides):
    # The package's exp(tA) of the spiral drift is NaN at t = 1e300, where
    # (tA)^4 overflows: the exact density raised a bare ValueError (exit 1,
    # a traceback).
    spiral = json.loads((CONFIGS / "spiral_2d.json").read_text())
    path = tmp_path / "huge_t.json"
    path.write_text(json.dumps(spiral | overrides))
    out = tmp_path / "out.json"
    assert cli.main([command, str(path), "--json", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error[NonFiniteResultError]" in err and "t=1e+300" in err
    assert not out.exists()


@pytest.mark.parametrize("outputs", [(), ("--json",), ("--csv",), ("--json", "--csv")])
@pytest.mark.parametrize("config", ["spiral_2d", "random_3d"])
def test_propagate_fails_at_a_late_time_before_any_output(tmp_path, capsys, config, outputs):
    # t = 0 is finite and t = 1e308 is not: on spiral_2d the expansion
    # values, on random_3d exp(tA), where t A overflows.  The t = 0 line
    # was printed first, and random_3d warned of the overflow.
    raw = json.loads((CONFIGS / f"{config}.json").read_text())
    path = tmp_path / "late.json"
    path.write_text(json.dumps(raw | {"propagate": {"times": [0.0, 1e308]}}))
    files = {flag: tmp_path / f"out{flag[2:]}" for flag in outputs}
    argv = [arg for flag, out in files.items() for arg in (flag, str(out))]
    assert cli.main(["propagate", str(path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error[NonFiniteResultError]") and "t=1e+308" in captured.err
    assert not any(out.exists() for out in files.values())


def test_propagate_at_a_time_where_t_a_overflows_does_not_warn(tmp_path, capsys):
    # diag_2d's exp(tA) is 0 once t A is -inf, so the density is f0's.
    raw = json.loads((CONFIGS / "diag_2d.json").read_text())
    path = tmp_path / "late.json"
    path.write_text(json.dumps(raw | {"propagate": {"times": [1e308]}}))
    assert cli.main(["propagate", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("t=1e+308: max |expansion - exact| = ")
    assert captured.err == ""


class _Built(Exception):
    pass


def test_solve_refuses_a_source_beyond_max_modes_before_building(tmp_path, capsys, monkeypatch):
    # n = 6 and a source of degree 20: a 230230-row index, and a degree-20
    # block of 53130 x 53130 floats.  Only the refusal runs here: a model
    # that is built raises _Built.
    def built(cfg):
        raise _Built

    monkeypatch.setattr(cli, "_build", built)
    eye = np.eye(6).tolist()
    for degree, refused in ((20, True), (7, True), (6, False)):
        term = [[degree, 0, 0, 0, 0, 0], [1.0, 0.0]]
        path = write_config(
            tmp_path, dimension=6, A=(-np.eye(6)).tolist(), B=eye, max_order=degree,
            source={"terms": [[[1, 0, 0, 0, 0, 0], [1.0, 0.0]], term]},
        )
        if refused:
            # C(6 + 7, 6) = 1716 coefficients; C(12, 6) = 924 pass.
            assert cli.main(["solve", path]) == 2
            assert f"config field 'source': degree {degree} has more" in capsys.readouterr().err
        else:
            with pytest.raises(_Built):
                cli.main(["solve", path])


def test_default_grid_of_four_dimensions_is_unchanged(tmp_path):
    # 21^4 = 194 481 points, under the cap.
    eye = np.eye(4).tolist()
    path = write_config(tmp_path, dimension=4, A=(-np.eye(4)).tolist(), B=eye)
    cfg = cli.load_config(path)
    assert cfg.grid_points == 21
    assert cli._grid_points(cfg).shape == (21**4, 4)


# ---- exit codes ----


def test_main_config_error_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, B=None)
    assert cli.main(["verify", path]) == 2
    err = capsys.readouterr().err
    assert "error[config]" in err
    assert "config field 'B'" in err


@pytest.mark.parametrize(
    "command, overrides, field",
    [
        ("verify", {"A": [[float("nan")]]}, "A[0]"),
        ("propagate", {"initial": {"mean": [float("inf")], "cov": [[0.5]]}}, "initial.mean"),
        ("verify", {"tolerances": {"residual_tol": float("nan")}}, "tolerances.residual_tol"),
        ("solve", {"source": {"terms": [[[1], [float("-inf"), 0.0]]]}}, "source.terms[0]"),
    ],
)
def test_main_non_finite_config_number_exits_2(tmp_path, capsys, command, overrides, field):
    # json.loads reads the bare tokens NaN and Infinity as floats.
    path = write_config(tmp_path, **overrides)
    text = Path(path).read_text()
    assert "NaN" in text or "Infinity" in text
    assert cli.main([command, path]) == 2
    err = capsys.readouterr().err
    assert "error[config]" in err
    assert f"config field '{field}': must be finite" in err


def test_main_defective_drift_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, dimension=2, A=[[-1.0, 1.0], [0.0, -1.0]], B=[[1.0, 0.0], [0.0, 1.0]])
    assert cli.main(["eigensystem", path]) == 2
    assert "error[DefectiveMatrixError]" in capsys.readouterr().err


def test_main_unstable_drift_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, A=[[1.0]])
    assert cli.main(["eigensystem", path]) == 2
    assert "error[UnstableDriftError]" in capsys.readouterr().err


def test_main_asymmetric_diffusion_in_small_units_exits_2(tmp_path, capsys):
    # B is measured against its own largest entry: a floor of 1 took this B
    # as symmetric, and verify built the model, ran and exited 1.
    B = [[1e-16, 5e-17], [-5e-17, 1e-16]]
    path = write_config(tmp_path, dimension=2, A=[[-1.0, -2.0], [2.0, -1.0]], B=B)
    assert cli.main(["verify", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error[NotSPDError]: B is not symmetric\n"


def test_main_rejects_unknown_command(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frobnicate", write_config(tmp_path)])
    assert excinfo.value.code == 2


# ---- subcommands ----


def test_eigensystem_output(tmp_path, capsys):
    path = write_config(tmp_path, max_order=3)
    out_json = tmp_path / "eig.json"
    assert cli.main(["eigensystem", path, "--json", str(out_json)]) == 0
    out = capsys.readouterr().out
    assert "dimension 1, 4 modes up to order 3" in out
    assert "drift eigenvalues: -1" in out
    assert "K=(1,)  lambda=-1" in out

    data = json.loads(out_json.read_text())
    assert data["dimension"] == 1
    assert data["stationary_cov"] == [[0.5]]
    modes = {tuple(m["index"]): m for m in data["modes"]}
    assert modes[(0,)]["forward"] == "1"
    assert modes[(1,)]["eigenvalue"] == [-1.0, 0.0]
    assert modes[(1,)]["normalization"] == 2
    assert modes[(1,)]["forward"] == "2*x1"
    assert modes[(2,)]["forward"] == "-2 + 4*x1^2"


def _printed_terms(out):
    """Number of terms on the f and g lines of an eigensystem report."""
    count = 0
    for line in out.splitlines():
        body = line.strip()
        if body.startswith(("f: ", "g: ")) and body[3:] != "0":
            count += body.count(" + ") + body.count(" - ") + 1
    return count


@pytest.mark.parametrize("c", [1e4, 1e8])
def test_eigensystem_prints_every_term_in_large_units(tmp_path, capsys, c):
    # x -> c x scales the coefficient of x^a by c^-|a|.  The printer
    # measures each term in f0's units, so random_3d with B times c^2
    # prints the terms it prints at c = 1, and no eigenfunction as 0.
    raw = json.loads((CONFIGS / "random_3d.json").read_text())
    counts = []
    for scale in (1.0, c):
        B = (scale * scale * np.array(raw["B"])).tolist()
        path = write_config(tmp_path, **{**raw, "B": B})
        assert cli.main(["eigensystem", path]) == 0
        out = capsys.readouterr().out
        assert "f: 0\n" not in out and "g: 0\n" not in out
        counts.append(_printed_terms(out))
    assert counts == [1024, 1024]


@pytest.mark.parametrize(
    "B, side, K", [(1e-16, "forward", "(19,)"), (1e16, "adjoint", "(36,)")]
)
def test_eigensystem_refuses_coefficients_that_are_not_finite(tmp_path, capsys, recwarn, B, side, K):
    # At max_order 44 the eigenfunction tables of a 1-D model overflow in
    # extreme units: the forward rows from K = (19,) on at B = 1e-16, the
    # adjoint rows from K = (36,) on at B = 1e16.  The report is refused
    # before anything is printed, naming the first such K, and the
    # overflow is not also a numpy warning.
    path = write_config(tmp_path, B=[[B]], max_order=44)
    out_json = tmp_path / "eig.json"
    assert cli.main(["eigensystem", path, "--json", str(out_json)]) == 2
    captured = capsys.readouterr()
    assert "error[NonFiniteResultError]" in captured.err
    assert f"{side} eigenfunction of K={K}" in captured.err
    assert captured.out == ""
    assert not out_json.exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_verify_passes_and_is_deterministic(tmp_path, capsys):
    path = write_config(tmp_path, max_order=4)
    j1, j2 = tmp_path / "v1.json", tmp_path / "v2.json"
    assert cli.main(["verify", path, "--json", str(j1)]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert "suite biorthogonality: PASS" in out
    assert cli.main(["verify", path, "--json", str(j2)]) == 0
    assert j1.read_bytes() == j2.read_bytes()
    data = json.loads(j1.read_text())
    assert data["passed"] is True
    assert set(data["suites"]) == {
        "biorthogonality",
        "eigen-residuals",
        "ladder-factorials",
        "commutators",
        "hermite-form",
        "operator-reconstruction",
    }


@pytest.mark.parametrize("json_flag", [False, True])
@pytest.mark.parametrize("order", [140, 150])
def test_verify_refuses_a_worst_that_is_not_finite(tmp_path, capsys, order, json_flag):
    # The monomial moments of order 2 * max_order overflow, so the pairing
    # product reads inf or NaN: a typed error, with or without --json, and
    # no numpy warning on the way.
    path = write_config(tmp_path, max_order=order)
    flags = ["--json", str(tmp_path / "v.json")] if json_flag else []
    assert cli.main(["verify", path, *flags]) == 2
    err = capsys.readouterr().err
    assert "error[NonFiniteResultError]" in err and "biorthogonality" in err
    assert "RuntimeWarning" not in err


def test_verify_fails_on_a_large_finite_worst(tmp_path, capsys):
    # At order 100 the pairing sums lose every digit but stay finite.
    path = write_config(tmp_path, max_order=100)
    assert cli.main(["verify", path]) == 1
    assert "suite biorthogonality: FAIL (worst 2.759e+93, tol 1.0e-08)" in capsys.readouterr().out


def test_propagate_outputs(tmp_path, capsys):
    path = write_config(
        tmp_path,
        initial={"mean": [0.0], "cov": [[0.5]]},
        propagate={"times": [0.3, 1.0], "grid": {"lo": -3.0, "hi": 3.0, "points": 25}},
    )
    out_json = tmp_path / "prop.json"
    out_csv = tmp_path / "prop.csv"
    rc = cli.main(["propagate", path, "--json", str(out_json), "--csv", str(out_csv)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "t=0.3" in out and "t=1" in out

    data = json.loads(out_json.read_text())
    assert [r["t"] for r in data["results"]] == [0.3, 1.0]
    # initial law = stationary law, so the truncated expansion is exact
    assert all(r["max_abs_error"] < 1e-12 for r in data["results"])
    assert all(r["max_imag"] < 1e-12 for r in data["results"])

    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,x1,expansion,exact,abs_error"
    assert len(lines) == 1 + 2 * 25
    first = lines[1].split(",")
    assert float(first[0]) == 0.3
    assert float(first[1]) == -3.0


def test_main_calls_parse_independently(tmp_path, capsys):
    # One parser serves every call; each call's subcommand, config and
    # output paths are its own, and no option carries over to the next.
    first = write_config(tmp_path, name="first.json", max_order=2)
    second = write_config(
        tmp_path,
        name="second.json",
        initial={"mean": [0.0], "cov": [[0.5]]},
        propagate={"times": [0.5], "grid": {"points": 5}},
    )
    eig_json, prop_json = tmp_path / "eig.json", tmp_path / "prop.json"
    prop_csv = tmp_path / "prop.csv"
    assert cli._parser() is cli._parser()
    assert cli.main(["eigensystem", first, "--json", str(eig_json)]) == 0
    rc = cli.main(["propagate", second, "--json", str(prop_json), "--csv", str(prop_csv)])
    assert rc == 0
    assert json.loads(eig_json.read_text())["max_order"] == 2
    assert [r["t"] for r in json.loads(prop_json.read_text())["results"]] == [0.5]
    prop_csv.unlink()
    again = tmp_path / "again.json"
    assert cli.main(["propagate", second, "--json", str(again)]) == 0
    assert not prop_csv.exists()
    assert again.read_bytes() == prop_json.read_bytes()
    verify_json = tmp_path / "verify.json"
    assert cli.main(["verify", first, "--json", str(verify_json)]) == 0
    assert json.loads(verify_json.read_text())["max_order"] == 2
    assert json.loads(eig_json.read_text())["max_order"] == 2
    capsys.readouterr()


def test_propagate_tracks_moving_gaussian(tmp_path):
    path = write_config(
        tmp_path,
        max_order=8,
        initial={"mean": [0.5], "cov": [[0.5]]},
        propagate={"times": [0.5], "grid": {"points": 41}},
    )
    out_json = tmp_path / "prop.json"
    assert cli.main(["propagate", path, "--json", str(out_json)]) == 0
    data = json.loads(out_json.read_text())
    assert data["results"][0]["max_abs_error"] < 1e-6


@pytest.mark.parametrize(
    "B, needle",
    [
        # Coefficients overflow: the expansion raises before any output.
        (1e200, "expansion coefficient of mode"),
        # Coefficients are fine, but mode values overflow on the grid.
        (1e-100, "expansion value at x="),
    ],
)
def test_propagate_overflow_exits_2_without_json(tmp_path, capsys, B, needle):
    path = write_config(
        tmp_path,
        B=[[B]],
        max_order=6,
        initial={"mean": [0.5], "cov": [[0.5]]},
        propagate={"times": [0.1], "grid": {"lo": -3, "hi": 3, "points": 5}},
    )
    out_json = tmp_path / "prop.json"
    assert cli.main(["propagate", path, "--json", str(out_json)]) == 2
    captured = capsys.readouterr()
    assert "error[NonFiniteResultError]" in captured.err and needle in captured.err
    assert "RuntimeWarning" not in captured.err
    assert not out_json.exists()


def _emit(monkeypatch, tmp_path, record, *outputs):
    """``cli.main`` with ``verify`` replaced by a command that returns
    ``record`` and one line, and the given output flags."""
    monkeypatch.setitem(cli._COMMANDS, "verify", lambda cfg: (0, ["report"], record, None))
    return cli.main(["verify", write_config(tmp_path), *outputs])


def test_write_json_refuses_non_finite(tmp_path, capsys, monkeypatch):
    # The record is encoded before any output: mc-check printed its whole
    # report before the JSON writer refused it.
    out_json = tmp_path / "out.json"
    for bad in (float("nan"), float("inf"), complex(1.0, float("-inf"))):
        with pytest.raises(errors.NonFiniteResultError):
            cli._encode_json({"value": [bad]}, str(out_json))
        assert _emit(monkeypatch, tmp_path, {"value": [bad]}, "--json", str(out_json)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error[NonFiniteResultError]: cannot write {out_json}: ")
        assert not out_json.exists()
    assert _emit(monkeypatch, tmp_path, {"value": [1.0, 2j]}, "--json", str(out_json)) == 0
    assert json.loads(out_json.read_text(), parse_constant=_reject_constant) == {
        "value": [1.0, [0.0, 2.0]]
    }


def test_write_json_encodes_numpy_values_as_python_ones(tmp_path, monkeypatch):
    # json encodes the Python values; the encoder hands it complex numbers,
    # arrays and numpy scalars in Python form, with the float repr json
    # uses for a float.
    out_json = tmp_path / "out.json"
    obj = {
        "b": np.array([[0.1, 1e-300], [2.5, -0.0]]),
        "a": [np.complex128(0.1 - 3j), np.float32(0.5), np.int64(3), (1, 2)],
        "c": np.array([1 + 0.2j]),
        "d": {"x": np.float64(1 / 3), "y": True, "z": None},
    }
    assert _emit(monkeypatch, tmp_path, obj, "--json", str(out_json)) == 0
    want = {
        "a": [[0.1, -3.0], 0.5, 3, [1, 2]],
        "b": [[0.1, 1e-300], [2.5, -0.0]],
        "c": [[1.0, 0.2]],
        "d": {"x": 1 / 3, "y": True, "z": None},
    }
    assert out_json.read_text() == json.dumps(want, indent=2, sort_keys=True) + "\n"
    assert cli._encode_json(obj, str(out_json)) == out_json.read_text()
    with pytest.raises(TypeError):
        cli._encode_json({"value": object()}, str(out_json))


# ---- output paths ----


def _emitting_config(tmp_path):
    # One 1-D config that every subcommand accepts, small enough to run fast.
    return write_config(
        tmp_path,
        max_order=3,
        initial={"mean": [0.5], "cov": [[0.4]]},
        sim={"paths": 100, "dt": 0.01, "t_final": 0.1, "seed": 1},
        propagate={"times": [0.5], "grid": {"points": 5}},
        source={"terms": [[[1], [1.0, 0.0]]]},
    )


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_an_unwritable_json_path_exits_2_before_any_output(tmp_path, capsys, command):
    # verify printed its whole report, then a FileNotFoundError traceback,
    # and exited 1, the code of a failed check.
    path = _emitting_config(tmp_path)
    out_json = tmp_path / "missing" / "out.json"
    assert cli.main([command, path]) in (0, 1)
    capsys.readouterr()
    assert cli.main([command, path, "--json", str(out_json)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error[FileNotFoundError]: cannot write {out_json}: No such file or directory\n"
    )


@pytest.mark.parametrize("json_out", [False, True], ids=["alone", "after-json"])
def test_an_unwritable_csv_path_exits_2_before_any_output(tmp_path, capsys, json_out):
    # --json is written first, so a file written before the failing one
    # remains.
    path = _emitting_config(tmp_path)
    out_json, out_csv = tmp_path / "out.json", tmp_path
    flags = ["--json", str(out_json)] if json_out else []
    assert cli.main(["propagate", path, *flags, "--csv", str(out_csv)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error[IsADirectoryError]: cannot write {out_csv}: Is a directory\n"
    assert out_json.exists() == json_out


def test_solve_roundtrip(tmp_path, capsys):
    path = write_config(
        tmp_path,
        source={"terms": [[[1], [1.0, 0.0]], [[3], [0.5, 0.0]]]},
    )
    out_json = tmp_path / "solve.json"
    assert cli.main(["solve", path, "--json", str(out_json)]) == 0
    out = capsys.readouterr().out
    assert "solve: PASS" in out
    data = json.loads(out_json.read_text())
    assert data["passed"] is True
    assert data["residual"] <= data["tol"]


def test_solve_residual_is_relative_to_source_scale(tmp_path, capsys):
    # spiral_2d with the source 1e8 * (x + 0.5 x^2 y): the absolute
    # coefficient residual is ~1e-7, the relative one ~1e-15.
    path = write_config(
        tmp_path,
        dimension=2,
        A=[[-1.0, -2.0], [2.0, -1.0]],
        B=[[1.0, 0.0], [0.0, 1.0]],
        max_order=6,
        source={"terms": [[[1, 0], [1e8, 0.0]], [[2, 1], [5e7, 0.0]]]},
    )
    out_json = tmp_path / "solve.json"
    assert cli.main(["solve", path, "--json", str(out_json)]) == 0
    assert "solve: PASS" in capsys.readouterr().out
    data = json.loads(out_json.read_text())
    assert data["passed"] is True
    assert data["residual"] < 1e-12


def test_solve_requires_source(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli.main(["solve", path]) == 2
    assert "required for solve" in capsys.readouterr().err


def test_solve_source_above_max_order_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, max_order=2, source={"terms": [[[3], [1.0, 0.0]]]})
    assert cli.main(["solve", path]) == 2
    assert "exceeds max_order" in capsys.readouterr().err


def test_solve_unsolvable_source_exits_2(tmp_path, capsys):
    # q = f0 has a nonzero stationary component, so L P = q has no solution
    path = write_config(tmp_path, source={"terms": [[[0], [1.0, 0.0]]]})
    assert cli.main(["solve", path]) == 2
    assert "error[NotSolvableError]" in capsys.readouterr().err


def test_solve_with_a_moment_that_overflows_exits_2_with_one_line(tmp_path, capsys, recwarn):
    # Under f0 = N(0, 1e200), E[x^4] and E[x^6] overflow: the stationary
    # component of x^6 - x^4 was inf - inf, which passed the solvability
    # test, and the solve failed later, after two numpy warnings.
    source = {"terms": [[[6], [1.0, 0.0]], [[4], [-1.0, 0.0]]]}
    path = write_config(tmp_path, B=[[2e200]], max_order=6, source=source)
    assert cli.main(["solve", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error[NonFiniteResultError]: ")
    assert "a = (4,)" in captured.err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_mc_check_passes(tmp_path, capsys):
    path = write_config(
        tmp_path,
        initial={"mean": [0.8], "cov": [[0.4]]},
        sim={"paths": 4000, "dt": 0.01, "t_final": 0.5, "seed": 77},
    )
    out_json = tmp_path / "mc.json"
    assert cli.main(["mc-check", path, "--json", str(out_json)]) == 0
    out = capsys.readouterr().out
    assert "mc-check: PASS" in out
    data = json.loads(out_json.read_text())
    assert data["passed"] is True
    assert data["worst_sigma"] <= 4.0
    assert data["backend"] == "numpy"


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_mc_check_rejects_single_path(tmp_path, capsys):
    # One path has zero standard errors, which would put Infinity in the JSON.
    sim = {"paths": 1, "dt": 0.01, "t_final": 0.5, "seed": 77}
    path = write_config(tmp_path, initial={"mean": [0.8], "cov": [[0.4]]}, sim=sim)
    out_json = tmp_path / "mc.json"
    assert cli.main(["mc-check", path, "--json", str(out_json)]) == 2
    assert "sim.paths" in capsys.readouterr().err
    assert not out_json.exists()


def test_mc_check_rejects_two_paths(tmp_path, capsys):
    # Two paths have d1 = -d2, so both give the same product d_i d_j and
    # cov_stderr is zero up to rounding: this seed reported "inf sigma".
    sim = {"paths": 2, "dt": 0.01, "t_final": 0.5, "seed": 2}
    path = write_config(tmp_path, initial={"mean": [0.8], "cov": [[0.4]]}, sim=sim)
    out_json = tmp_path / "mc.json"
    assert cli.main(["mc-check", path, "--json", str(out_json)]) == 2
    assert "sim.paths" in capsys.readouterr().err
    assert not out_json.exists()


def test_mc_check_three_paths_writes_strict_json(tmp_path):
    sim = {"paths": 3, "dt": 0.01, "t_final": 0.5, "seed": 77}
    path = write_config(tmp_path, initial={"mean": [0.8], "cov": [[0.4]]}, sim=sim)
    out_json = tmp_path / "mc.json"
    assert cli.main(["mc-check", path, "--json", str(out_json)]) in (0, 1)
    data = json.loads(out_json.read_text(), parse_constant=_reject_constant)
    assert data["paths"] == 3
    assert np.all(np.asarray(data["cov_stderr"]) > 0.0)


def test_mc_check_rejects_t_final_off_the_step_grid(tmp_path, capsys):
    # Three steps of 0.3 stop at t = 0.9; the exact law would be taken at 1.
    sim = {"paths": 100, "dt": 0.3, "t_final": 1.0, "seed": 77}
    path = write_config(tmp_path, initial={"mean": [0.8], "cov": [[0.4]]}, sim=sim)
    out_json = tmp_path / "mc.json"
    assert cli.main(["mc-check", path, "--json", str(out_json)]) == 2
    assert "config field 'sim': t_final must be an integer multiple of dt" in capsys.readouterr().err
    assert not out_json.exists()


@pytest.mark.parametrize("json_out", [False, True], ids=["text", "json"])
def test_mc_check_paths_that_overflow_exit_2(tmp_path, capsys, json_out):
    # |1 + dt lambda| = 3.04 on the spiral: the paths overflow, and every
    # line printed "+nan ... (nan sigma)", then "mc-check: FAIL" with exit
    # 1, the code of a failed check; with --json the writer refused the NaN
    # after the report was printed, and the run exited 2.
    spiral = json.loads((CONFIGS / "spiral_2d.json").read_text())
    sim = {"paths": 1000, "dt": 1.5, "t_final": 1500, "seed": 1}
    path = tmp_path / "unstable_step.json"
    path.write_text(json.dumps(spiral | {"sim": sim}))
    out = tmp_path / "out.json"
    argv = ["mc-check", str(path)] + (["--json", str(out)] if json_out else [])
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[NonFiniteResultError]") and "dt=1.5" in captured.err
    assert not out.exists()


def test_mc_check_refuses_a_standard_error_of_zero(tmp_path, capsys, recwarn):
    # With B and the initial covariance at 1e-36 every path ends at the same
    # float, so both standard errors are exactly 0: the sigmas divided by
    # zero, warned twice and printed "inf sigma" with exit 1.
    raw = json.loads((CONFIGS / "canonical_1d.json").read_text())
    raw |= {
        "B": [[1e-36]],
        "initial": {"mean": raw["initial"]["mean"], "cov": [[1e-36]]},
        "sim": {"paths": 100, "dt": 0.01, "t_final": 0.1, "seed": 1},
    }
    path = tmp_path / "still.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out.json"
    for argv in ([], ["--json", str(out)]):
        assert cli.main(["mc-check", str(path), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[NonFiniteResultError]: the standard error of mean[0] is 0")
        assert captured.err.count("\n") == 1
    assert not out.exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_mc_check_requires_sim(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli.main(["mc-check", path]) == 2
    assert "required for mc-check" in capsys.readouterr().err


def test_shipped_configs_load():
    names = sorted(p.name for p in CONFIGS.glob("*.json"))
    assert names == [
        "canonical_1d.json",
        "diag_2d.json",
        "random_3d.json",
        "spiral_2d.json",
    ]
    for p in CONFIGS.glob("*.json"):
        cfg = cli.load_config(str(p))
        assert cfg.dimension in (1, 2, 3)
