import json
import math
import os

import numpy as np
import pytest

from conftest import (BAD_INTEGERS, bad_integer_doc, delay_chain_doc, first_order_doc,
                      perfbench_workloads)
from hybridad import (FlattenError, SchemaError, ValidationError, agdm_diff, cli, flatten,
                      parse_diagram)
from hybridad.agdm import cone
from hybridad.cli import main, optimize_scalar, step_map_derivatives
from hybridad.diagram import load_diagram
from hybridad.sim import SimConfig, integrate

MODELS = os.path.join(os.path.dirname(__file__), "..", "models")


def _write(tmp_path, doc, name="model.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def model_path(name):
    return os.path.join(MODELS, name)


def test_validate_ok(capsys):
    assert main(["validate", model_path("first_order.json")]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_reports_violations(tmp_path, capsys):
    doc = first_order_doc()
    doc["links"] = doc["links"][:-1]
    path = _write(tmp_path, doc)
    assert main(["validate", path]) == 2
    assert "unlinked-input" in capsys.readouterr().err


@pytest.mark.parametrize("text", ['{"name": "x", ', "[1]"])
def test_validate_malformed_document_is_a_schema_error(tmp_path, capsys, text):
    # a truncated document and a JSON array: no traceback, exit status 2
    path = tmp_path / "model.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("schema error: ")


@pytest.mark.parametrize("text", ['{"name": "x", ', "[1]"])
@pytest.mark.parametrize("argv", [["simulate", "--tf", "1"], ["diff", "--theta", "k"],
                                  ["sens", "--theta", "k"],
                                  ["optimize", "--theta", "k", "--cost", "y"]])
def test_every_subcommand_reports_a_schema_error_as_validate_does(tmp_path, capsys, argv, text):
    path = tmp_path / "model.json"
    path.write_text(text)
    assert main([argv[0], str(path), *argv[1:]]) == 2
    assert capsys.readouterr().err.startswith("schema error: ")


@pytest.mark.parametrize("case", sorted(BAD_INTEGERS))
def test_validate_reports_a_bad_integer_field_as_a_schema_error(tmp_path, capsys, case):
    # no ValueError traceback, and no silent truncation of 1.5 or true to 1
    doc, path = bad_integer_doc(case)
    assert main(["validate", _write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith(f"schema error: {path}: expected an integer")


MALFORMED = {            # a list field given some other shape: the path it names
    "outputs-entry-not-object": ("outputs", [1], "$.outputs[0]"),
    "outputs-not-list": ("outputs", "y", "$.outputs"),
    "blocks-not-list": ("blocks", 5, "$.blocks"),
    "links-not-list": ("links", 3, "$.links"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("argv", [["validate"], ["diff", "--theta", "k"]])
def test_malformed_list_field_is_a_schema_error(tmp_path, capsys, case, argv):
    key, value, path = MALFORMED[case]
    doc = first_order_doc()
    doc[key] = value
    with pytest.raises(SchemaError) as exc:
        load_diagram(json.dumps(doc))
    assert exc.value.path == path
    assert main([argv[0], _write(tmp_path, doc), *argv[1:]]) == 2
    assert capsys.readouterr().err.startswith(f"schema error: {path}: ")


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_diff_round_trip_schema_closure(tmp_path, capsys):
    out = tmp_path / "aug.json"
    rc = main(["diff", model_path("first_order.json"), "--theta", "tau",
               "--out", str(out)])
    assert rc == 0
    assert "blocks: 5 ->" in capsys.readouterr().err
    d2 = parse_diagram(out.read_text())               # re-parses and re-validates
    assert any(o.name == "dy/dtau" for o in d2.outputs)
    # and the transformed file itself can be differentiated again
    out2 = tmp_path / "aug2.json"
    assert main(["diff", str(out), "--theta", "k", "--out", str(out2)]) == 0
    parse_diagram(out2.read_text())


def test_diff_order_two(tmp_path):
    out = tmp_path / "aug2.json"
    rc = main(["diff", model_path("first_order.json"), "--theta", "tau",
               "--order", "2", "--out", str(out)])
    assert rc == 0
    d2 = parse_diagram(out.read_text())
    assert any(o.name == "d2y/dtau2" for o in d2.outputs)


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("model,theta,order", [
    ("first_order", "tau", 2),
    ("discrete_loop", "a", 2),
    ("second_order_cost", "zeta", 1),
    ("chain2", "k", 2),
    ("every_rule", "k", 1),
    ("every_rule", "k", 2),
    ("every_rule_discrete", "k", 1),
    ("every_rule_discrete", "k", 2),
])
def test_diff_matches_golden_file(tmp_path, model, theta, order):
    out = tmp_path / "aug.json"
    rc = main(["diff", model_path(f"{model}.json"), "--theta", theta,
               "--order", str(order), "--out", str(out)])
    assert rc == 0
    with open(os.path.join(GOLDEN, f"{model}.{theta}.order{order}.json"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_diff_in_a_delay_matches_golden_file(tmp_path):
    # ``models/every_rule_delay.json`` is ``every_rule.json`` with its
    # TransportDelay's delay made a parameter ``h``
    out = tmp_path / "aug.json"
    assert main(["diff", model_path("every_rule_delay.json"), "--theta", "h",
                 "--out", str(out)]) == 0
    with open(os.path.join(GOLDEN, "every_rule.h.order1.json"), "rb") as fh:
        assert out.read_bytes() == fh.read()


@pytest.mark.parametrize("model", ["dly", "every_rule"])
def test_diff_second_order_through_a_delay_is_an_error_line(tmp_path, capsys, model):
    path = (_write(tmp_path, delay_chain_doc()) if model == "dly"
            else model_path("every_rule_delay.json"))
    out = tmp_path / "aug2.json"
    assert main(["diff", path, "--theta", "h", "--order", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: d(D)/d(h): ") and err.count("\n") == 1
    assert not out.exists()


def test_diff_unknown_parameter_exit_2(capsys):
    rc = main(["diff", model_path("first_order.json"), "--theta", "zeta"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "zeta" in err and "tau" in err and "k" in err


def test_simulate_csv_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["simulate", model_path("first_order.json"), "--tf", "1", "--step",
            "0.01"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "t,I,y"


def test_simulation_failure_exit_3(tmp_path, capsys):
    doc = {
        "schema": 1, "name": "bad", "params": {},
        "blocks": [
            {"id": "U", "kind": "Step", "time": 0.0, "level": -1.0},
            {"id": "F", "kind": "Fn", "fn": "log"},
        ],
        "links": [{"from": "U.out", "to": "F.in"}],
        "outputs": [{"name": "y", "from": "F.out"}],
    }
    path = _write(tmp_path, doc)
    rc = main(["simulate", path, "--tf", "1", "--step", "0.1"])
    assert rc == 3
    assert "log" in capsys.readouterr().err


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    cols = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return cols, data


def test_sens_routes_agree_on_first_order(tmp_path, capsys):
    out = tmp_path / "s.csv"
    rc = main(["sens", model_path("first_order.json"), "--theta", "tau",
               "--theta", "k", "--route", "both", "--tf", "2", "--step", "0.001",
               "--out", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "route discrepancy" in err
    disc = float(err.split("=")[-1].split()[0])
    assert disc <= 1e-9
    cols, data = _read_csv(out)
    assert cols == ["t", "y", "dy/dtau", "dy/dk"]
    t = data[:, 0]
    want = 1 - np.exp(-t / 0.5)
    assert np.max(np.abs(data[:, 3] - want)) < 1e-6     # dy/dk = y/k


def test_sens_routes_agree_on_second_order_cost(tmp_path, capsys):
    out = tmp_path / "s2.csv"
    rc = main(["sens", model_path("second_order_cost.json"), "--theta", "zeta",
               "--route", "both", "--tf", "2", "--step", "0.005",
               "--out", str(out)])
    assert rc == 0
    disc = float(capsys.readouterr().err.split("=")[-1].split()[0])
    assert disc <= 1e-9


def test_sens_routes_agree_on_discrete_loop(tmp_path, capsys):
    out = tmp_path / "sd.csv"
    rc = main(["sens", model_path("discrete_loop.json"), "--theta", "K",
               "--route", "both", "--tf", "8", "--step", "0.1",
               "--out", str(out)])
    assert rc == 0
    disc = float(capsys.readouterr().err.split("=")[-1].split()[0])
    assert disc <= 1e-9


def test_sensode_route_integrates_sensitivities_once(tmp_path, monkeypatch):
    # one base run, then one run of the extension over both parameters
    calls = []

    def counting(m, config, theta=None):
        calls.append(m)
        return integrate(m, config, theta)

    monkeypatch.setattr(cli, "integrate", counting)
    out = tmp_path / "s.csv"
    assert main(["sens", model_path("first_order.json"), "--theta", "tau",
                 "--theta", "k", "--route", "sensode", "--tf", "1", "--step", "0.01",
                 "--out", str(out)]) == 0
    assert [m.has_sensitivity for m in calls] == [False, True]
    assert calls[1].output_names == ("y", "dy/dtau", "dy/dk")
    assert _read_csv(out)[0] == ["t", "y", "dy/dtau", "dy/dk"]


def test_sens_zero_column_for_unused_parameter(tmp_path):
    doc = first_order_doc()
    doc["params"]["spare"] = 1.0
    path = _write(tmp_path, doc)
    out = tmp_path / "z.csv"
    assert main(["sens", path, "--theta", "spare", "--tf", "1", "--step", "0.01",
                 "--out", str(out)]) == 0
    cols, data = _read_csv(out)
    assert cols[-1] == "dy/dspare"
    assert np.all(data[:, -1] == 0.0)


# -- optimization -----------------------------------------------------------------

def test_optimize_quadratic_toy(tmp_path):
    doc = {
        "schema": 1, "name": "toy", "params": {"th": 0.1},
        "blocks": [{"id": "C", "kind": "Constant", "value": "(th - 2)*(th - 2)"}],
        "outputs": [{"name": "g", "from": "C.out"}],
        "links": [],
    }
    d = parse_diagram(json.dumps(doc))
    res = optimize_scalar(d, "th", "g", SimConfig(step=0.1, tf=1.0),
                          theta0=0.1, jacobian="ad")
    assert res["converged"]
    assert abs(res["theta_opt"] - 2.0) <= 1e-10


def test_optimize_cli_ad(capsys):
    rc = main(["optimize", model_path("second_order_cost.json"), "--theta", "zeta",
               "--cost", "integrand", "--jacobian", "ad", "--theta0", "0.1",
               "--step", "0.01", "--tf", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    z = float([ln for ln in out.splitlines() if ln.startswith("zeta_opt")][0]
              .split("=")[1])
    assert abs(z - math.sqrt(2) / 2) <= 5e-3


def test_optimize_fd_stalls_on_decimated_channel(capsys):
    rc = main(["optimize", model_path("second_order_cost.json"), "--theta", "zeta",
               "--cost", "integrand", "--jacobian", "fd", "--theta0", "0.1",
               "--step", "0.005", "--tf", "10", "--decimate", "0.5"])
    assert rc == 0
    out = capsys.readouterr().out
    z = float([ln for ln in out.splitlines() if ln.startswith("zeta_opt")][0]
              .split("=")[1])
    it = int([ln for ln in out.splitlines() if ln.startswith("iterations")][0]
             .split("=")[1])
    assert abs(z - 0.1) <= 0.05
    assert it == 1


# -- reference tables ---------------------------------------------------------------

def test_table_rk4_row(capsys):
    assert main(["table", "rk4-derivs"]) == 0
    out = capsys.readouterr().out
    assert "-3438.75" in out and "19530" in out
    rk4 = step_map_derivatives("rk4", 8)
    assert rk4 == pytest.approx([-1, 2, -6, 24, -115, 600, -3438.75, 19530])
    mid = step_map_derivatives("midpoint", 8)
    assert mid[:3] == pytest.approx([-1, 2, -1.5])
    assert mid[3:] == pytest.approx([0.0] * 5)


def test_table_newton_sqrt(capsys):
    assert main(["table", "newton-sqrt"]) == 0
    out = capsys.readouterr().out
    assert "-0.1360827546" in out
    assert "-0.1360827635" in out
    assert "1.141438795e+09" in out


def test_table_warmstart(capsys):
    assert main(["table", "warmstart"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if "fraction" in ln]
    assert float(lines[0].split()[-1]) > 0.5
    assert float(lines[1].split()[-1]) <= 0.01


def test_table_sequence(capsys):
    assert main(["table", "sequence"]) == 0
    out = capsys.readouterr().out
    assert "(0.0, 11)" in out
    assert "float32" in out


@pytest.mark.parametrize("flags", [["--step", "0"], ["--tf", "inf"], ["--event-tol", "2"]])
@pytest.mark.parametrize("command", [["simulate"], ["sens", "--theta", "k"],
                                     ["optimize", "--theta", "k", "--cost", "y"]])
def test_bad_simulation_flags_are_usage_errors(capsys, command, flags):
    # reported as argparse reports a bad flag, before the diagram is read
    with pytest.raises(SystemExit) as exc:
        main([command[0], "no-such-file.json", *command[1:], *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: hybridad {command[0]} ")
    assert f"hybridad {command[0]}: error: " in err


@pytest.mark.parametrize("flags", [["--decimate", "0.25", "--step", "0.1"], ["--decimate", "nan"],
                                   ["--theta0", "nan"], ["--theta0", "-inf"]])
def test_bad_optimize_flags_are_usage_errors(capsys, flags):
    # a decimation off the step grid and a start that no clamp can place
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "no-such-file.json", "--theta", "k", "--cost", "y", *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hybridad optimize ")
    assert "hybridad optimize: error: " in err


@pytest.mark.parametrize("value", ["0", "-0.5", "1e400"])
def test_simulate_rejects_a_sample_time_that_is_not_positive_and_finite(tmp_path, capsys, value):
    with open(model_path("discrete_loop.json"), encoding="utf-8") as fh:
        text = fh.read().replace('"sample_time": 0.1', f'"sample_time": {value}')
    path = tmp_path / "model.json"
    path.write_text(text)
    assert main(["simulate", str(path), "--tf", "1"]) == 2
    assert capsys.readouterr().err.startswith(
        "schema error: $.blocks[2].sample_time: expected a positive finite sample time")


@pytest.mark.parametrize("command", [["validate"], ["simulate", "--tf", "1"],
                                     ["diff", "--theta", "k"]])
def test_a_diagram_that_cannot_be_read_is_one_error_line(tmp_path, capsys, command):
    missing = str(tmp_path / "missing.json")
    assert main([command[0], missing, *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and missing in err and err.count("\n") == 1


@pytest.mark.parametrize("command", [["validate"], ["simulate", "--tf", "1"],
                                     ["diff", "--theta", "k"]])
def test_a_diagram_that_is_not_utf8_is_one_error_line(tmp_path, capsys, command):
    path = tmp_path / "model.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(first_order_doc()).encode("utf-16-le"))
    assert main([command[0], str(path), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and err.count("\n") == 1


@pytest.mark.parametrize("command", [["simulate", "--tf", "0.01"], ["diff", "--theta", "k"]])
def test_an_out_file_that_cannot_be_written_is_one_error_line(tmp_path, capsys, command):
    out = str(tmp_path / "no-such-dir" / "out")
    assert main([command[0], model_path("first_order.json"), *command[1:], "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and out in err and err.count("\n") == 1


def test_optimize_cost_that_is_no_output_is_a_violation(capsys):
    with open(model_path("second_order_cost.json"), encoding="utf-8") as fh:
        d = parse_diagram(fh.read())
    with pytest.raises(ValidationError) as exc:
        optimize_scalar(d, "zeta", "nosuch", SimConfig(step=0.01, tf=1.0), 0.5)
    assert [(v.code, v.message) for v in exc.value.violations] == [
        ("no-output", "no output 'nosuch'")]
    assert main(["optimize", model_path("second_order_cost.json"), "--theta", "zeta",
                 "--cost", "nosuch"]) == 2
    assert capsys.readouterr().err == "error: no output 'nosuch'\n"


# -- the cost output's cone -------------------------------------------------------

def _second_order_text(source, monkeypatch):
    if source == "model":
        with open(model_path("second_order_cost.json"), encoding="utf-8") as fh:
            return fh.read()
    return perfbench_workloads(monkeypatch)._second_order_doc(0.1, 1.0, 1.0)


def _columns(tr):
    return {**{("state", nm): tr.states[:, i] for i, nm in enumerate(tr.state_names)},
            **{("output", nm): tr.outputs[:, i] for i, nm in enumerate(tr.output_names)}}


def _same_named_columns(part, whole):
    """Every column of trajectory ``part`` equals the same-named column
    of trajectory ``whole`` bit for bit."""
    assert np.array_equal(part.times, whole.times)
    cols = _columns(whole)
    for key, col in _columns(part).items():
        assert np.array_equal(col, cols[key]), key


@pytest.mark.parametrize("source", ["model", "perfbench"])
@pytest.mark.parametrize("theta, n_aug", [("zeta", 4), ("omega", 4), ("q", 2)])
def test_cost_cone_runs_equal_the_whole_diagram_columns(monkeypatch, source, theta, n_aug):
    d = parse_diagram(_second_order_text(source, monkeypatch))
    c = cone(d, "integrand")
    config = SimConfig(step=0.02, tf=10.0)
    z = {theta: 0.37}
    base, whole = flatten(c), flatten(d)
    assert (base.n, whole.n) == (2, 3)        # the cost integrator IJ is not read
    _same_named_columns(integrate(base, config, theta=z), integrate(whole, config, theta=z))
    maug, waug = flatten(agdm_diff(c, theta)), flatten(agdm_diff(d, theta))
    assert (maug.n, waug.n) == (n_aug, n_aug + 2)    # q reaches no state, only the cost
    assert maug.output_names == ("integrand", f"dintegrand/d{theta}")
    _same_named_columns(integrate(maug, config, theta=z), integrate(waug, config, theta=z))


_OPT_PINS = {
    ("ad", None): ("0x1.66ab1d3f9ad61p-1", 13, True, "0x1.699b52224504bp+0", [
        ("0x1.999999999999ap-4", "-0x1.86387006038afp+3"),
        ("0x1.3333333333334p-3", "-0x1.1a19ca3b04550p+3"),
        ("0x1.1f3045dcdac2ap-2", "-0x1.f40226ea8f57cp+1"),
        ("0x1.897be078ad7c3p-2", "-0x1.05e72afb9c984p+1"),
        ("0x1.fe67295537b85p-2", "-0x1.dbd1a7f65b0c5p-1"),
        ("0x1.2fd946d00ae42p-1", "-0x1.89c180d576f15p-2"),
        ("0x1.522f27d9293f5p-1", "-0x1.f664cca136bfep-4"),
        ("0x1.62441f2af5ad2p-1", "-0x1.92a10a3b9df8cp-6"),
        ("0x1.664ba66981650p-1", "-0x1.0c307e24ec650p-9"),
        ("0x1.66a95674803cfp-1", "-0x1.3eeb1bc101620p-15"),
        ("0x1.66ab1c872f5b1p-1", "-0x1.02a3043db4000p-24"),
        ("0x1.66ab1d3f99716p-1", "-0x1.f43e040000000p-40"),
        ("0x1.66ab1d3f9ad61p-1", "0x1.f800000000000p-53"),
    ]),
    ("fd", None): ("0x1.66ab1cfee1907p-1", 14, True, "0x1.699b52224504bp+0", [
        ("0x1.999999999999ap-4", "-0x1.86386d0000000p+3"),
        ("0x1.3333333333334p-3", "-0x1.1a19c8eaaaaaap+3"),
        ("0x1.1f30475a5627cp-2", "-0x1.f40222ff77da9p+1"),
        ("0x1.897be28a5c3edp-2", "-0x1.05e72785cb22fp+1"),
        ("0x1.fe672ab80cfbbp-2", "-0x1.dbd1a343adc44p-1"),
        ("0x1.2fd94784e1cf3p-1", "-0x1.89c17d0793b2bp-2"),
        ("0x1.522f28939849fp-1", "-0x1.f664b2a8006bbp-4"),
        ("0x1.62441ee9e2194p-1", "-0x1.92a1133b6c4c9p-6"),
        ("0x1.664ba648ef934p-1", "-0x1.0c3072216c66fp-9"),
        ("0x1.66a956500584ep-1", "-0x1.3edfdf9ad1686p-15"),
        ("0x1.66ab1c5269dc7p-1", "-0x1.6d70cbf5d48ccp-24"),
        ("0x1.66ab1d5726e44p-1", "0x1.6d70caec2b32bp-25"),
        ("0x1.66ab1d003d372p-1", "0x1.6d70cb44b8fb1p-26"),
        ("0x1.66ab1cfee1907p-1", "0x0.0p+0"),
    ]),
    ("ad", 0.5): ("0x1.67ea0b4c3c74cp-1", 12, True, "0x1.299a520000000p+0", [
        ("0x1.999999999999ap-4", "-0x1.a2e4a00000000p+3"),
        ("0x1.3333333333334p-3", "-0x1.2aae0a0000000p+3"),
        ("0x1.18cf89917229bp-2", "-0x1.0cb6be0000000p+2"),
        ("0x1.80d2bc47904a9p-2", "-0x1.1b5af80000000p+1"),
        ("0x1.f4d2d79e84724p-2", "-0x1.0590640000000p+0"),
        ("0x1.2c20cc46b492fp-1", "-0x1.ba22ee0000000p-2"),
        ("0x1.50839202d3db4p-1", "-0x1.2494de0000000p-3"),
        ("0x1.628191e3e7e88p-1", "-0x1.f463380000000p-6"),
        ("0x1.6765fd86849aep-1", "-0x1.7603b80000000p-9"),
        ("0x1.67e710aa8491ep-1", "-0x1.0d65000000000p-14"),
        ("0x1.67ea098cf3cd7p-1", "-0x1.3c00000000000p-23"),
        ("0x1.67ea0b4c3c74cp-1", "0x0.0p+0"),
    ]),
}


@pytest.mark.parametrize("jacobian, decimate", list(_OPT_PINS))
def test_optimize_scalar_results_are_pinned(jacobian, decimate):
    # recorded before the optimizer integrated only the cost output's cone
    with open(model_path("second_order_cost.json"), encoding="utf-8") as fh:
        d = parse_diagram(fh.read())
    res = optimize_scalar(d, "zeta", "integrand", SimConfig(step=0.05, tf=5.0), 0.1,
                          jacobian=jacobian, decimate=decimate)
    theta_opt, iterations, converged, cost, history = _OPT_PINS[jacobian, decimate]
    assert res["theta_opt"].hex() == theta_opt
    assert res["iterations"] == iterations
    assert res["converged"] is converged
    assert res["cost"].hex() == cost
    assert [(z.hex(), g.hex()) for z, g in res["history"]] == history


def test_optimize_error_outside_the_cost_cone_raises_as_before():
    with open(model_path("second_order_cost.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["blocks"].append({"id": "Z", "kind": "UnitDelay", "initial": 0.0, "sample_time": 0.1})
    doc["links"].append({"from": "Ix.out", "to": "Z.in"})
    doc["outputs"].append({"name": "z", "from": "Z.out"})
    d = parse_diagram(json.dumps(doc))
    assert flatten(cone(d, "integrand")).n == 2
    with pytest.raises(FlattenError, match="mixed continuous"):
        optimize_scalar(d, "zeta", "integrand", SimConfig(step=0.05, tf=1.0), 0.1)


@pytest.mark.parametrize("kwargs, message", [
    ({"jacobian": "xx"}, "jacobian must be 'ad' or 'fd'"),
    ({"lo": 1.0, "hi": 0.5}, "need finite lo < hi"),
    ({"lo": 0.5, "hi": 0.5}, "need finite lo < hi"),
    ({"lo": -math.inf}, "need finite lo < hi"),
    ({"hi": math.nan}, "need finite lo < hi"),
])
def test_optimize_scalar_rejects_bad_arguments(kwargs, message):
    with open(model_path("second_order_cost.json"), encoding="utf-8") as fh:
        d = parse_diagram(fh.read())
    with pytest.raises(ValueError, match=message):
        optimize_scalar(d, "zeta", "integrand", SimConfig(step=0.05, tf=1.0), 0.1, **kwargs)
