"""CLI contract: subcommands, exit codes, report determinism."""

import functools
import json

import numpy as np
import pytest

from statmanifold import CompiledManifold, ManifoldSpec, SpecValidationError, cli, get_builtin
from statmanifold.cli import main


@pytest.fixture
def centroaffine_spec(tmp_path):
    path = tmp_path / "centroaffine.json"
    assert main(["export", "centroaffine", str(path)]) == 0
    return path


def test_list_names_builtins(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "centroaffine" in out
    assert "sphere-m2" in out


def test_run_passes_on_builtin(centroaffine_spec, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["run", str(centroaffine_spec), "--out", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["schema"] == 1
    assert report["flags"]["semi_equiaffine"] is True
    assert report["constant_curvature"]["lambda"] == pytest.approx(-1.0)
    assert report["constant_curvature"]["is_constant"] is True
    assert report["main1_flag_equivalence"] == "consistent"
    assert all(
        check["status"] in ("pass", "not-applicable")
        for check in report["checks"].values()
    )
    sample_echo = report["spec"]["sample"]
    assert sample_echo["count"] == 100 and sample_echo["seed"] == 42


def test_run_writes_report_to_stdout(centroaffine_spec, capsys):
    assert main(["run", str(centroaffine_spec)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"].startswith("centroaffine")


def test_run_deterministic_modulo_runtime(centroaffine_spec, tmp_path):
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", str(centroaffine_spec), "--out", str(a_path)]) == 0
    assert main(["run", str(centroaffine_spec), "--out", str(b_path)]) == 0
    a = json.loads(a_path.read_text())
    b = json.loads(b_path.read_text())
    a.pop("runtime_seconds")
    b.pop("runtime_seconds")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_seed_changes_sample_but_not_flags(centroaffine_spec, tmp_path):
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", str(centroaffine_spec), "--seed", "1", "--out", str(a_path)]) == 0
    assert main(["run", str(centroaffine_spec), "--seed", "2", "--out", str(b_path)]) == 0
    a = json.loads(a_path.read_text())
    b = json.loads(b_path.read_text())
    assert a["flags"] == b["flags"]
    assert a["checks"]["codazzi"]["argmax_point"] != b["checks"]["codazzi"]["argmax_point"]


def test_run_fails_with_unreachable_tolerance(centroaffine_spec, capsys):
    assert main(["run", str(centroaffine_spec), "--tol", "1e-18"]) == 2
    err = capsys.readouterr().err
    assert "check failed" in err


def test_run_rejects_invalid_spec(tmp_path, capsys):
    path = tmp_path / "bad.json"
    payload = {
        "name": "bad",
        "dim": 2,
        "coordinates": ["x1", "x2"],
        "metric": {"11": "1", "12": "0", "22": "1"},
        "cubic": {"121": "x1"},
        "sample": {"box": {"x1": [0, 1], "x2": [0, 1]}, "count": 4, "seed": 1,
                   "strategy": "uniform"},
    }
    path.write_text(json.dumps(payload))
    assert main(["run", str(path)]) == 3
    err = capsys.readouterr().err
    assert "sorted index triple" in err
    assert main(["crosscheck", str(path)]) == 3
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("command", ["run", "crosscheck"])
def test_each_command_compiles_the_spec_once_and_probes_never(
    centroaffine_spec, monkeypatch, command
):
    # the frames and stencils gate the points a run uses; the box probe is validate()'s
    calls, kinds = [], set()
    compile_, rows = ManifoldSpec.compile, CompiledManifold.rows

    def counted(self):
        calls.append(self.name)
        return compile_(self)

    def spied(self, label, points, order, kind):
        kinds.add(kind)
        return rows(self, label, points, order, kind)

    monkeypatch.setattr(ManifoldSpec, "compile", counted)
    monkeypatch.setattr(CompiledManifold, "rows", spied)
    assert main([command, str(centroaffine_spec)]) == 0
    assert len(calls) == 1
    assert "probe" not in kinds and "sample" in kinds


def test_a_spec_bad_only_at_a_probe_point_runs(tmp_path, capsys):
    # 1e-300/(x1 - 1.75)^2 leaves its domain at the box centre x1 = 1.75 alone, the one
    # probe point that is no sample point at the spec's seed, and is negligible elsewhere
    spec = get_builtin("centroaffine").spec
    assert spec._probe_points()[0, 0] == 1.75
    assert np.abs(spec.sample_points()[:, 0] - 1.75).min() > 1e-3
    spec.cubic["111"] += " + 1e-300*pow(x1 - 1.75, -2)"
    with pytest.raises(SpecValidationError, match=r"cubic\[111\] leaves its domain inside the box"):
        spec.validate()
    path = tmp_path / "centre-pole.json"
    spec.save(path)
    assert main(["run", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["flags"]["semi_equiaffine"] is True


def test_run_rejects_non_finite_expression(centroaffine_spec, capsys):
    payload = json.loads(centroaffine_spec.read_text())
    payload["cubic"]["111"] = "exp(800*x1)"
    centroaffine_spec.write_text(json.dumps(payload))
    assert main(["run", str(centroaffine_spec)]) == 3
    captured = capsys.readouterr()
    assert "cubic[111] is not finite" in captured.err
    assert captured.out == ""


def test_run_rejects_a_too_deep_expression(tmp_path, capsys):
    path = tmp_path / "flat-cubic.json"
    assert main(["export", "flat-cubic", str(path)]) == 0
    payload = json.loads(path.read_text())
    payload["cubic"]["111"] = " + ".join(["x1"] * 3000)
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["run", str(path)]) == 3
    captured = capsys.readouterr()
    assert "cubic[111]: expression nests deeper than" in captured.err
    assert captured.out == ""


def test_run_missing_file(capsys):
    assert main(["run", "/no/such/spec.json"]) == 3


def test_run_non_json_file(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("not json at all {")
    assert main(["run", str(path)]) == 3


def test_crosscheck_passes_and_coarse_step_fails(centroaffine_spec, capsys):
    assert main(["crosscheck", str(centroaffine_spec)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["max_deviation"] <= 1e-4

    assert main(["crosscheck", str(centroaffine_spec), "--h", "0.3"]) == 2
    captured = capsys.readouterr()
    assert "crosscheck failed" in captured.err


@pytest.mark.parametrize(
    "command, option, value, name",
    [
        ("crosscheck", "--h", "nan", "h"),
        ("crosscheck", "--h", "0", "h"),
        ("crosscheck", "--h", "-0.001", "h"),
        ("crosscheck", "--h", "1e-162", "h"),  # its square underflows to 0
        ("crosscheck", "--threshold", "nan", "threshold"),
        ("crosscheck", "--threshold", "-1", "threshold"),
        ("run", "--tol", "nan", "tol"),
        ("run", "--tol", "inf", "tol"),
        ("run", "--tol", "-1", "tol"),
        ("run", "--samples", "-3", "samples"),
        ("run", "--seed", "-1", "seed"),
        ("crosscheck", "--samples", "-3", "samples"),
        ("crosscheck", "--seed", "-1", "seed"),
    ],
)
def test_bad_run_option_is_named_before_any_work(
    centroaffine_spec, monkeypatch, capsys, command, option, value, name
):
    def unexpected(self):
        raise AssertionError("the spec was compiled before the options were checked")

    monkeypatch.setattr(ManifoldSpec, "compile", unexpected)
    assert main([command, str(centroaffine_spec), option, value]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: --{name} must be ")
    assert "metric" not in captured.err and captured.out == ""


def test_export_unknown_builtin(capsys):
    assert main(["export", "nope", "/tmp/x.json"]) == 3


def test_run_rejects_overflow_between_probe_points(spiked_centroaffine, tmp_path, capsys):
    spec, _ = spiked_centroaffine
    path = tmp_path / "spiked.json"
    spec.save(path)
    assert main(["run", str(path), "--seed", "1"]) == 3
    captured = capsys.readouterr()
    assert "cubic[111] is not finite to order 2 at sample point" in captured.err
    assert captured.out == ""


def test_run_names_the_component_that_leaves_its_domain(pole_centroaffine, tmp_path, capsys):
    _, shrunk = pole_centroaffine
    path = tmp_path / "pole.json"
    shrunk.save(path)
    assert main(["run", str(path), "--seed", "1"]) == 3
    captured = capsys.readouterr()
    assert "cubic[111] leaves its domain inside the box: division by zero" in captured.err
    assert captured.out == ""


def test_run_rejects_a_non_finite_box(tmp_path, capsys):
    spec = ManifoldSpec.from_dict(get_builtin("centroaffine").spec.to_dict())
    spec.sample.box["x1"] = (-float("inf"), 1.0)
    path = tmp_path / "unbounded.json"
    spec.save(path)
    assert main(["run", str(path)]) == 3
    captured = capsys.readouterr()
    assert "sample box for 'x1' must have finite bounds" in captured.err
    assert captured.out == ""


def test_a_deeper_value_error_is_printed_verbatim(centroaffine_spec, monkeypatch, capsys):
    # only an option error names a flag; other messages are not rewritten
    def deeper(*args, **kwargs):
        raise ValueError("seed must be drawn from a generator")

    monkeypatch.setattr(cli, "run_diagnostics", deeper)
    assert main(["run", str(centroaffine_spec)]) == 3
    assert capsys.readouterr().err == "error: seed must be drawn from a generator\n"


def test_crosscheck_names_an_h_too_large_for_the_box(centroaffine_spec, capsys):
    assert main(["crosscheck", str(centroaffine_spec), "--h", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "error: --h must be less than a quarter of the width of the sample box for 'x1' "
        "(2.5), got 1\n"
    )
    assert captured.out == ""


def test_run_names_a_pow_exponent_that_divides_by_zero(tmp_path, capsys):
    spec = ManifoldSpec.from_dict(get_builtin("centroaffine").spec.to_dict())
    spec.parameters["a"] = 0.0
    spec.cubic["111"] = "pow(x1, 1/a)"
    path = tmp_path / "zero-exponent.json"
    spec.save(path)
    assert main(["run", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "invalid manifold spec:\n  - cubic[111]: pow exponent divides by zero at offset 8\n"
    )
    assert captured.out == ""


def test_run_names_the_point_where_the_metric_is_indefinite(dented_metric, tmp_path, capsys):
    spec, inside = dented_metric
    path = tmp_path / "dented.json"
    spec.save(path)
    assert main(["run", str(path), "--seed", "1"]) == 3
    captured = capsys.readouterr()
    prefix = "error: metric is not positive definite at sample point "
    assert captured.err.startswith(prefix)
    assert inside(json.loads(captured.err[len(prefix):]))
    assert captured.out == ""


def _centroaffine_with(path, value):
    """The centroaffine spec object with the entry at ``path`` (a tuple of keys) set to ``value``."""
    payload = get_builtin("centroaffine").spec.to_dict()
    *sections, key = path
    functools.reduce(dict.__getitem__, sections, payload)[key] = value
    return payload


@pytest.mark.parametrize(
    "body, field",
    [
        ([1, 2], "the top level of the spec"),
        ("x", "the top level of the spec"),
        (None, "the top level of the spec"),
        (_centroaffine_with(("sample",), [1]), "sample must be an object"),
        (_centroaffine_with(("parameters",), [1]), "parameters must be an object"),
        (_centroaffine_with(("sample", "box"), [[0, 1]]), "sample box must be an object"),
        (_centroaffine_with(("cubic", "111"), 2.5), "cubic[111] must be a string, got 2.5"),
        (_centroaffine_with(("metric", "11"), ["1"]), "metric[11] must be a string, got ['1']"),
    ],
)
def test_malformed_spec_json_is_a_spec_error(tmp_path, capsys, body, field):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(body))
    assert main(["run", str(path)]) == 3
    captured = capsys.readouterr()
    assert field in captured.err and captured.out == ""


def test_a_misspelled_spec_key_is_a_spec_error(tmp_path, capsys):
    # "cubics" would otherwise drop the cubic form and report the Riemannian structure
    payload = get_builtin("centroaffine").spec.to_dict()
    payload["cubics"] = payload.pop("cubic")
    path = tmp_path / "misspelled.json"
    path.write_text(json.dumps(payload))
    assert main(["run", str(path)]) == 3
    captured = capsys.readouterr()
    assert "unknown key 'cubics' in the top level of the spec" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "args",
    [
        ["run", "{spec}", "--samples", "abc"],
        ["run", "{spec}", "--tol", "x"],
        ["crosscheck", "{spec}", "--h", "abc"],
        ["run", "{spec}", "--no-such-option"],
        ["run"],
        ["no-such-command"],
    ],
    ids=["samples", "tol", "h", "unknown-option", "missing-spec", "unknown-command"],
)
def test_a_malformed_command_line_exits_3(centroaffine_spec, capsys, args):
    # exit 2 means that a check failed; argparse's own usage error would exit 2
    assert main([arg.format(spec=centroaffine_spec) for arg in args]) == 3
    captured = capsys.readouterr()
    assert "error:" in captured.err and captured.out == ""


def test_help_still_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_an_overflowing_constant_curvature_fit_is_a_spec_error(tmp_path, capsys):
    # M.M of the fit overflowed to inf: lambda read -0.0 and three identities were blamed
    spec = ManifoldSpec.from_dict(get_builtin("centroaffine").spec.to_dict())
    spec.metric["11"] = "1e200*x1"
    path = tmp_path / "huge-metric.json"
    spec.save(path)
    assert main(["run", str(path)]) == 3
    captured = capsys.readouterr()
    assert "constant-curvature fit: M.M is not finite at sample point [" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["run", "crosscheck"])
def test_an_overflowing_probe_is_a_spec_error(huge_box, tmp_path, capsys, command):
    path = tmp_path / "huge.json"
    huge_box.save(path)
    assert main([command, str(path)]) == 3
    captured = capsys.readouterr()
    assert "scalar probe: order-" in captured.err and "jet is not finite at sample point [" in captured.err
    assert captured.out == ""
