import csv
import dataclasses
import json
import os
import re

import numpy as np
import pytest

from freelab.cli import (
    RunConfig,
    emit_report,
    load_report,
    main,
    parse_measure,
    parse_potential,
)
from freelab import cli
from freelab.cli import _read_manifest, _verify_inputs
from freelab.equilibrium import SolverSettings, moment_map
from freelab.errors import InvalidInputError
from freelab.inequalities import _KINDS, KINDS, InequalityReport, verify
from freelab.measures import moment
from freelab.rmt import ConvergenceSeries
from freelab.transport import w2

MANIFEST_V1 = os.path.join(os.path.dirname(__file__), os.pardir,
                           "manifests", "verify_suite_v1.csv")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


# ---------------------------------------------------------------------------
# spec mini-language

def test_parse_measure_heads():
    mu = parse_measure("semicircle:mean=0.5,var=2")
    assert mu.label == "semicircle(mean=0.5,var=2)"
    assert abs(mu.barycenter() - 0.5) < 1e-12
    assert abs(moment(mu, 2) - (2.0 + 0.25)) < 1e-6

    arc = parse_measure("arcsine:radius=2,center=-1")
    assert arc.support_lo == pytest.approx(-3.0)
    assert arc.support_hi == pytest.approx(1.0)

    mp = parse_measure("mp:scale=1")
    assert abs(mp.barycenter() - 1.0) < 1e-6

    shifted = parse_measure("translate:of=(arcsine:radius=1),a=0.3")
    assert abs(shifted.barycenter() - 0.3) < 1e-10


def test_parse_measure_defaults():
    mu = parse_measure("semicircle")
    assert mu.label == "semicircle(mean=0,var=1)"


def test_parse_potential_heads():
    assert parse_potential("quadratic:c=2").label == "quadratic(c=2)"
    assert parse_potential("quartic").label == "quartic(g=0.25)"
    assert parse_potential("poly:c2=0.5,c4=0.125").label == "poly(c2=0.5,c4=0.125)"
    assert parse_potential("abs").label == "abs"
    assert parse_potential("halfline:slope=2").domain_lo == 0.0
    assert parse_potential("arcsine:radius=1").bounded_domain

    f = parse_potential("shift:of=(quadratic:c=1),z=1")
    assert f.label == "shifted(quadratic(c=1),z=1)"
    assert abs(f.value(1.0)) < 1e-15

    g = parse_potential("tilt:of=(quadratic:c=1),lam=1")
    assert abs(g.value(2.0) - (2.0 + 2.0)) < 1e-15

    h = parse_potential("legendre:of=(quadratic:c=4)")
    assert abs(h.value(4.0) - 2.0) < 1e-9  # (c x^2/2)* = y^2 / (2c)


def test_spec_errors_carry_positions():
    with pytest.raises(InvalidInputError, match="position 0"):
        parse_measure("semicircel:mean=0")
    with pytest.raises(InvalidInputError, match="position 15"):
        parse_measure("semicircle:mean")
    with pytest.raises(InvalidInputError, match="position 10"):
        parse_measure("semicircle)")
    with pytest.raises(InvalidInputError, match="expected a number"):
        parse_measure("semicircle:mean=x")
    with pytest.raises(InvalidInputError, match="known:"):
        parse_potential("cubic:c=1")
    with pytest.raises(InvalidInputError, match="empty"):
        parse_measure("   ")


EXACT_SPEC_ERRORS = [
    (parse_measure, "translate:a=1", "missing required key 'of'"),
    (parse_measure, "translate:of=1,a=1", "key 'of' takes a parenthesized spec"),
    (parse_measure, "translate:of=(semicircle),a=(mp)", "key 'a' takes a number, not a nested spec"),
    (parse_potential, "shift:of=(quadratic)", "missing required key 'z'"),
    (parse_potential, "abs:x=1", "'abs' does not take keys ['x']"),
    # the nested spec is built before the keys that follow it are read
    (parse_potential, "shift:of=(quadratic:q=1)", "'quadratic' does not take keys ['q']"),
    (parse_measure, "bogus", "spec 'bogus', position 0: unknown measure 'bogus' "
                             "(known: arcsine, mp, semicircle, translate)"),
    (parse_potential, "semicircle", "spec 'semicircle', position 0: unknown potential "
                                    "'semicircle' (known: abs, arcsine, halfline, legendre, "
                                    "poly, quadratic, quartic, shift, tilt)"),
]


def test_spec_semantic_errors():
    with pytest.raises(InvalidInputError, match="duplicate"):
        parse_measure("semicircle:mean=0,mean=1")
    with pytest.raises(InvalidInputError, match="does not take"):
        parse_potential("quadratic:q=1")
    with pytest.raises(InvalidInputError, match="parenthesized"):
        parse_potential("legendre:of=1")
    with pytest.raises(InvalidInputError, match="takes a number"):
        parse_potential("quadratic:c=(quadratic:c=1)")
    with pytest.raises(InvalidInputError, match="missing required key"):
        parse_potential("poly:c2=0.5")
    for parse, spec, message in EXACT_SPEC_ERRORS:
        with pytest.raises(InvalidInputError) as info:
            parse(spec)
        assert str(info.value) == message


@pytest.mark.parametrize("what, parse, table", [
    ("measure", parse_measure, cli._MEASURE_SPECS),
    ("potential", parse_potential, cli._POTENTIAL_SPECS),
])
def test_readme_spec_reference_is_the_parser_table(what, parse, table):
    # one line per head, every key in table order, defaults written as such
    with open(README) as fh:
        block = re.search(rf"```{what}-specs\n(.*?)```", fh.read(), re.S).group(1)
    lines = block.splitlines()
    for line in lines:
        parse(line)
    nodes = [cli._parse_spec(line, table, what) for line in lines]
    assert sorted(head for head, _ in nodes) == sorted(table)
    for head, args in nodes:
        keys = table[head][1]
        assert list(args) == [key for key, _ in keys], head
        for key, default in keys:
            if isinstance(default, float):
                assert args[key] == default, (head, key)


def test_run_config_validation():
    ok = RunConfig(command="pressure", specs={"potential": "quadratic:c=1"},
                   options={})
    assert ok.nodes >= 256
    with pytest.raises(InvalidInputError, match="command"):
        RunConfig(command="solve", specs={}, options={})
    with pytest.raises(InvalidInputError, match="nodes"):
        RunConfig(command="pressure", specs={}, options={}, nodes=255)
    with pytest.raises(InvalidInputError, match="tolerance"):
        RunConfig(command="pressure", specs={}, options={}, tolerance=0.0)
    with pytest.raises(InvalidInputError, match="seed"):
        RunConfig(command="pressure", specs={}, options={}, seed=-1)
    with pytest.raises(InvalidInputError, match="seed"):
        RunConfig(command="pressure", specs={}, options={}, seed=2 ** 63)
    with pytest.raises(InvalidInputError, match="format"):
        RunConfig(command="pressure", specs={}, options={}, format="xml")


# ---------------------------------------------------------------------------
# report files

def test_report_round_trips_identically(tmp_path):
    report = verify("SSFTI", {"mu": parse_measure("semicircle:var=4"),
                              "nu": parse_measure("semicircle:var=0.25")})
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    emit_report(report, str(first), "json", seed=7)
    loaded = load_report(str(first))
    emit_report(loaded, str(second), "json", seed=7)
    assert first.read_bytes() == second.read_bytes()
    assert loaded == dataclasses.replace(report, runtime_ms=0)


def test_sentinel_deficit_serializes_as_string(tmp_path):
    report = InequalityReport(
        kind="SSFTI", lhs=np.inf, rhs=2.0, deficit=-np.inf,
        tolerance=1e-3, passed=False,
        inputs={"mu": "atomic"}, resolution=512, runtime_ms=4)
    path = tmp_path / "sentinel.json"
    emit_report(report, str(path))
    text = path.read_text()
    assert '"deficit": "neg_infinity"' in text
    assert '"lhs": "infinity"' in text
    assert '"pass": false' in text
    loaded = load_report(str(path))
    assert loaded.deficit == -np.inf and loaded.lhs == np.inf
    assert not loaded.passed


def test_report_csv_has_fixed_columns(tmp_path):
    report = verify("FREE_TALAGRAND", {"mu": parse_measure("semicircle")})
    path = tmp_path / "r.csv"
    emit_report(report, str(path), "csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "kind,inputs,lhs,rhs,deficit,pass"
    assert lines[1].startswith("FREE_TALAGRAND,")
    assert lines[1].endswith(",true")


def test_convergence_series_csv_columns(tmp_path):
    series = ConvergenceSeries(n_values=(8, 16), statistic=(0.25, 0.125),
                               target=0.0, label="ks")
    path = tmp_path / "s.csv"
    emit_report(series, str(path), "csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "N,statistic,target"
    assert lines[1] == "8,0.25,0"


def test_seventeen_digit_floats(tmp_path):
    report = InequalityReport(
        kind="SSFTI", lhs=0.1, rhs=0.3, deficit=0.3 - 0.1,
        tolerance=1e-3, passed=True,
        inputs={}, resolution=256, runtime_ms=0)
    path = tmp_path / "digits.json"
    emit_report(report, str(path))
    text = path.read_text()
    assert '"lhs": 0.10000000000000001' in text
    assert load_report(str(path)).lhs == 0.1


def test_load_report_rejects_other_schemas(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 99}))
    with pytest.raises(InvalidInputError, match="schema_version"):
        load_report(str(path))


_GOOD_REPORT = {
    "schema_version": 1, "kind": "SSFTI", "lhs": 0.5, "rhs": 1.0, "deficit": 0.5,
    "pass": True, "tolerance": 1e-3, "inputs": {}, "resolution": 256,
    "runtime_ms": 0, "seed": 0,
}


@pytest.mark.parametrize("text", [
    "{not json",
    "[1, 2, 3]",
    json.dumps({**_GOOD_REPORT, "inputs": []}),
    json.dumps({**_GOOD_REPORT, "resolution": "fine"}),
], ids=["not-json", "top-level-array", "inputs-array", "resolution-text"])
def test_load_report_rejects_malformed_files(tmp_path, text):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_GOOD_REPORT))
    assert load_report(str(good)).deficit == 0.5
    path = tmp_path / "malformed.json"
    path.write_text(text)
    with pytest.raises(InvalidInputError, match="malformed.json"):
        load_report(str(path))


# ---------------------------------------------------------------------------
# single commands end to end

def test_cli_free_talagrand_at_sigma(tmp_path, capsys):
    out = tmp_path / "t.json"
    code = main(["verify", "free_talagrand", "--mu", "semicircle:mean=0,var=1",
                 "--out", str(out)])
    assert code == 0
    assert "pass" in capsys.readouterr().out
    assert abs(load_report(str(out)).deficit) < 1e-4


def test_cli_ssfti_scaling_example(tmp_path):
    out = tmp_path / "s.json"
    code = main(["verify", "ssfti", "--mu", "semicircle:mean=0,var=4",
                 "--nu", "semicircle:mean=0,var=0.25", "--out", str(out)])
    assert code == 0
    report = load_report(str(out))
    assert report.lhs == pytest.approx(2.25, abs=1e-3)
    assert report.rhs == pytest.approx(2.25, abs=1e-3)


def test_cli_equilibrium_quartic(tmp_path):
    out = tmp_path / "eq.json"
    code = main(["equilibrium", "--potential", "quartic:g=0.25",
                 "--nodes", "1024", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["converged"] is True
    assert data["el_residual"] < 1e-3
    assert data["support"][1] == pytest.approx(1.5196713713, abs=1e-6)
    assert data["density"][0][0] == pytest.approx(data["support"][0], abs=1e-6)


def test_cli_equilibrium_density_table_is_the_semicircle(tmp_path):
    # quadratic:c=1 has the semicircle sqrt(4 - x^2) / (2 pi) on [-2, 2] as
    # its equilibrium; every row of the report's table must sit on it
    for fmt in ("json", "csv"):
        out = tmp_path / f"eq.{fmt}"
        code = main(["equilibrium", "--potential", "quadratic:c=1",
                     "--format", fmt, "--out", str(out)])
        assert code == 0
        if fmt == "json":
            table = np.array(json.loads(out.read_text())["density"])
        else:
            lines = out.read_text().splitlines()
            assert lines[0] == "x,density"
            table = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
        assert table.shape == (1025, 2)
        x, rho = table.T
        exact = np.sqrt(np.maximum(4.0 - x * x, 0.0)) / (2.0 * np.pi)
        assert np.max(np.abs(rho - exact)) < 1e-6


@pytest.mark.parametrize("spec, exact", [
    ("arcsine:radius=2.5", lambda x: 1.0 / (np.pi * np.sqrt(6.25 - x * x))),
    ("halfline:slope=1", lambda x: np.sqrt((4.0 - x) / x) / (2.0 * np.pi)),
], ids=["flat-well", "halfline"])
def test_cli_equilibrium_density_is_the_closed_form_at_hard_edges(tmp_path, spec, exact):
    # the flat well's arcsine law and the halfline's Marchenko-Pastur law,
    # from the solve's series, on every row up to the edge nodes
    out = tmp_path / "eq.json"
    assert main(["equilibrium", "--potential", spec, "--out", str(out)]) == 0
    x, rho = np.array(json.loads(out.read_text())["density"]).T
    assert x.size == 1025
    assert np.max(np.abs(rho / exact(x) - 1.0)) <= 1e-6


def test_cli_equilibrium_rejects_unmet_tolerance(capsys):
    # the quartic's conjugate has a cusp at 0; its residual, about 5.9e-4,
    # passes the default --tol of 1e-3 and fails 1e-9, so the exit code
    # shows --tol is read
    argv = ["equilibrium", "--potential", "legendre:of=(quartic:g=1)"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--tol", "1e-9"]) == 3
    assert "residual" in capsys.readouterr().err


def test_cli_verify_failure_exits_one(capsys):
    # mu passes the centering check (|mean| < 1e-8), but SSFTI needs an exact
    # barycenter: its exact deficit here is 2 m_mu m_nu = -1.8e-6
    code = main(["verify", "ssfti", "--mu", "semicircle:mean=-9e-9,var=1",
                 "--nu", "semicircle:mean=100,var=1", "--tol", "1e-9"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_non_finite_tolerance_exits_two(capsys):
    # --tol inf would make deficit >= -tol hold for every deficit; the same
    # run at a finite tolerance still fails
    argv = ["verify", "ssfti", "--mu", "semicircle:mean=-9e-9,var=1",
            "--nu", "semicircle:mean=100,var=1"]
    assert main(argv + ["--tol", "inf"]) == 2
    out = capsys.readouterr()
    assert "freelab: error:" in out.err and "tolerance" in out.err
    assert "pass" not in out.out
    assert main(argv + ["--tol", "1e-9"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_hypothesis_violation_exits_two(capsys):
    code = main(["verify", "ssfti", "--mu", "semicircle:mean=1,var=1",
                 "--nu", "semicircle:mean=0,var=1"])
    assert code == 2
    assert "centered" in capsys.readouterr().err


@pytest.mark.parametrize("argv, kind, role", [
    (["ssfti", "--mu", "semicircle", "--nu", "semicircle", "--theta", "0.5"], "SSFTI", "'theta'"),
    (["free_talagrand", "--mu", "semicircle", "--f", "quadratic", "--g", "abs"],
     "FREE_TALAGRAND", "'f', 'g'"),
])
def test_cli_verify_rejects_roles_the_kind_never_reads(tmp_path, capsys, argv, kind, role):
    out = tmp_path / "r.json"
    assert main(["verify", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{kind} does not read {role}" in err
    assert not out.exists()


def test_cli_parse_error_exits_two(capsys):
    code = main(["w2", "--mu", "semicircel:mean=0", "--nu", "semicircle"])
    assert code == 2
    assert "position" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["w2", "--mu", "semicircle:mean=1e999", "--nu", "semicircle"],
    ["w2", "--mu", "semicircle:var=1e999", "--nu", "semicircle"],
    ["pressure", "--potential", "arcsine:radius=1e999"],
    ["pressure", "--potential", "quadratic:c=1e999"],
])
def test_cli_non_finite_spec_numbers_exit_two(argv, capsys):
    # 1e999 overflows to inf when parsed; it is bad input, not a result
    code = main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert "freelab: error:" in err
    assert "finite" in err
    assert "Traceback" not in err


def test_cli_unwritable_output_exits_four(tmp_path, capsys):
    code = main(["pressure", "--potential", "quadratic:c=1", "--nodes", "512",
                 "--out", str(tmp_path / "missing" / "p.json")])
    assert code == 4
    assert "i/o" in capsys.readouterr().err


def test_cli_unknown_command_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["annihilate"])
    assert info.value.code == 2


def test_cli_pressure_value(tmp_path, capsys):
    out = tmp_path / "p.json"
    code = main(["pressure", "--potential", "quadratic:c=1", "--nodes", "1024",
                 "--out", str(out)])
    assert code == 0
    assert "0.918938533" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert data["pressure"] == pytest.approx(0.5 * np.log(2.0 * np.pi), abs=1e-9)


def test_cli_w2_matches_library(tmp_path, capsys):
    out = tmp_path / "w.json"
    code = main(["w2", "--mu", "semicircle:mean=1,var=1", "--nu",
                 "arcsine:radius=1", "--out", str(out)])
    assert code == 0
    assert "cost^2" in capsys.readouterr().out
    direct = w2(parse_measure("semicircle:mean=1,var=1"),
                parse_measure("arcsine:radius=1"))
    data = json.loads(out.read_text())
    assert data["cost"] == pytest.approx(direct.cost, abs=1e-12)


def test_cli_moment_map_on_semicircle(tmp_path):
    out = tmp_path / "mm.json"
    code = main(["moment-map", "--mu", "semicircle:mean=0,var=1",
                 "--nodes", "512", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    table = np.asarray(data["potential"], dtype=float)
    assert table.shape == (513, 2)
    # the moment map of sigma is close to x^2/2 up to its anchoring
    mid = table[np.abs(table[:, 0] - 1.0).argmin()]
    assert mid[1] == pytest.approx(0.5, abs=0.05)


@pytest.mark.parametrize("var", [0.01, 100.0])
def test_cli_moment_map_on_narrow_and_wide_semicircles(tmp_path, var):
    out = tmp_path / "mm.json"
    assert main(["moment-map", "--mu", f"semicircle:var={var:g}", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    edge = 2.0 / np.sqrt(var)
    assert data["support"] == pytest.approx([-edge, edge], rel=1e-12)


def test_cli_moment_map_potential_is_pointwise_u(tmp_path):
    # the report evaluates u on all 513 points in one call; a point-by-point
    # loop is the reference, in both formats
    u, _ = moment_map(parse_measure("semicircle:mean=0,var=1"), SolverSettings(nodes=512))
    for fmt in ("json", "csv"):
        out = tmp_path / f"mm.{fmt}"
        code = main(["moment-map", "--mu", "semicircle:mean=0,var=1",
                     "--nodes", "512", "--format", fmt, "--out", str(out)])
        assert code == 0
        if fmt == "json":
            table = np.asarray(json.loads(out.read_text())["potential"], dtype=float)
        else:
            table = np.loadtxt(out, delimiter=",", skiprows=1)
        assert table[:, 1].tolist() == [u.value(x) for x in table[:, 0]]


def _parsed(value):
    """A CSV cell or a JSON scalar as one comparable value: sentinel words
    and numbers as floats, true/false as bools, other text unchanged."""
    if isinstance(value, bool) or value in ("true", "false"):
        return value in (True, "true")
    try:
        return float({"neg_infinity": "-inf"}.get(value, value))
    except ValueError:
        return value


_FORMAT_PARITY = {
    "w2": (["w2", "--mu", "semicircle:mean=1,var=1", "--nu", "arcsine:radius=1"],
           ["cost", "cost_squared"], lambda d: [[d["cost"], d["cost_squared"]]]),
    "verify": (["verify", "ssfti", "--mu", "semicircle:var=4", "--nu", "semicircle:var=0.25"],
               ["kind", "inputs", "lhs", "rhs", "deficit", "pass"],
               lambda d: [[d["kind"], " ".join(f"{k}={v}" for k, v in d["inputs"].items()),
                           d["lhs"], d["rhs"], d["deficit"], d["pass"]]]),
    # a comma in the label makes the CSV quote it; the pressure must come
    # back bit for bit
    "pressure": (["pressure", "--potential", "poly:c2=0.5,c4=0.125", "--nodes", "1024"],
                 ["potential", "pressure"], lambda d: [[d["potential"], d["pressure"]]]),
    "rmt-converge": (["rmt", "converge", "--potential", "quadratic:c=1", "--ns", "8,16",
                      "--sweeps", "80", "--chains", "1", "--nodes", "512", "--seed", "5"],
                     ["N", "statistic", "target"],
                     lambda d: [[n, s, d["target"]]
                                for n, s in zip(d["n_values"], d["statistic"])]),
}


@pytest.mark.parametrize("command", sorted(_FORMAT_PARITY))
def test_cli_csv_cells_parse_to_the_json_values(tmp_path, command):
    argv, header, expected_rows = _FORMAT_PARITY[command]
    for fmt in ("json", "csv"):
        assert main(argv + ["--format", fmt, "--out", str(tmp_path / f"r.{fmt}")]) == 0
    data = json.loads((tmp_path / "r.json").read_text())
    with open(tmp_path / "r.csv", newline="") as fh:
        lines = list(csv.reader(fh))
    assert lines[0] == header
    assert ([[_parsed(c) for c in row] for row in lines[1:]]
            == [[_parsed(v) for v in row] for row in expected_rows(data)])


# ---------------------------------------------------------------------------
# rmt commands

def test_cli_rmt_sample_csv(tmp_path):
    out = tmp_path / "sample.csv"
    code = main(["rmt", "sample", "--potential", "quadratic:c=1", "--n", "4",
                 "--sweeps", "30", "--seed", "11", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "sweep,eig_1,eig_2,eig_3,eig_4"
    assert len(lines) == 31
    row = [float(tok) for tok in lines[1].split(",")]
    assert row[0] == 0.0
    assert row[1] <= row[2] <= row[3] <= row[4]

    again = tmp_path / "again.csv"
    main(["rmt", "sample", "--potential", "quadratic:c=1", "--n", "4",
          "--sweeps", "30", "--seed", "11", "--out", str(again)])
    assert out.read_bytes() == again.read_bytes()


def test_cli_rmt_sample_requires_out(capsys):
    code = main(["rmt", "sample", "--potential", "quadratic:c=1", "--n", "4",
                 "--sweeps", "30"])
    assert code == 2
    assert "--out" in capsys.readouterr().err


def test_cli_rmt_converge_json(tmp_path):
    out = tmp_path / "c.json"
    code = main(["rmt", "converge", "--potential", "quadratic:c=1",
                 "--ns", "8,16", "--sweeps", "80", "--chains", "1",
                 "--nodes", "512", "--seed", "5", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["n_values"] == [8, 16]
    assert len(data["statistic"]) == 2
    assert all(0.0 < s < 0.5 for s in data["statistic"])


def test_cli_rmt_converge_rejects_bad_ns(monkeypatch, capsys):
    # statistics come back in sorted N order, so sizes must increase strictly;
    # a bad list exits before the solve and before any sampling
    def never(*args, **kwargs):
        raise AssertionError("bad --ns reached the solver or the sampler")

    monkeypatch.setattr(cli, "solve_equilibrium", never)
    monkeypatch.setattr(cli, "sample_eigenvalues", never)
    for ns in ("8,banana", "8,8", "16,8"):
        code = main(["rmt", "converge", "--potential", "quadratic:c=1",
                     "--ns", ns, "--out", "unused.json"])
        assert code == 2
        assert "--ns" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify-suite

def _write_manifest(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in rows:
            writer.writerow(row)


SMALL_ROWS = [
    ["ssfti", "mu=semicircle:mean=0,var=4", "nu=semicircle:mean=0,var=0.25"],
    ["free_talagrand", "mu=semicircle:mean=0,var=2"],
    ["ssfti_general", "mu=semicircle:mean=1,var=1", "nu=semicircle:mean=-1,var=1"],
    ["free_talagrand", "mu=arcsine:radius=1"],
]


def test_verify_suite_passes_and_sorts(tmp_path, monkeypatch):
    manifest = tmp_path / "m.csv"
    _write_manifest(manifest, SMALL_ROWS)
    summary = tmp_path / "out" / "summary.csv"
    os.makedirs(summary.parent)
    monkeypatch.setenv("FREELAB_THREADS", "2")
    code = main(["verify-suite", "--manifest", str(manifest),
                 "--out", str(summary)])
    assert code == 0
    lines = summary.read_text().splitlines()
    assert lines[0] == "kind,inputs,lhs,rhs,deficit,pass"
    kinds = [line.split(",")[0] for line in lines[1:]]
    assert kinds == sorted(kinds)
    assert len(lines) == 1 + len(SMALL_ROWS)
    reports_dir = tmp_path / "out" / "summary_reports"
    assert len(list(reports_dir.iterdir())) == len(SMALL_ROWS)
    # report files carry the row number and canonical kind
    assert (reports_dir / "row001_free_talagrand.json").exists()


def test_verify_suite_is_byte_deterministic(tmp_path, monkeypatch):
    manifest = tmp_path / "m.csv"
    _write_manifest(manifest, SMALL_ROWS[:2])
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    monkeypatch.setenv("FREELAB_THREADS", "2")
    assert main(["verify-suite", "--manifest", str(manifest), "--out", str(first)]) == 0
    monkeypatch.setenv("FREELAB_THREADS", "1")
    assert main(["verify-suite", "--manifest", str(manifest), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    for name in os.listdir(tmp_path / "a_reports"):
        a = (tmp_path / "a_reports" / name).read_bytes()
        b = (tmp_path / "b_reports" / name).read_bytes()
        assert a == b


def test_verify_suite_failed_report_exits_one(tmp_path, capsys):
    manifest = tmp_path / "m.csv"
    # off equality by 2 m_mu m_nu = -1.8e-6; mu passes the centering check
    _write_manifest(manifest, [["ssfti", "mu=semicircle:mean=-9e-9,var=1",
                                "nu=semicircle:mean=100,var=1"]])
    code = main(["verify-suite", "--manifest", str(manifest),
                 "--tol", "1e-12", "--out", str(tmp_path / "s.csv")])
    assert code == 1
    assert "1 failed" in capsys.readouterr().out


def test_verify_suite_error_rows(tmp_path, capsys):
    manifest = tmp_path / "m.csv"
    _write_manifest(manifest, [["ssfti", "rho=semicircle"]])
    code = main(["verify-suite", "--manifest", str(manifest),
                 "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "unknown role" in capsys.readouterr().err

    _write_manifest(manifest, [["ssfti", "mu=semicircle:mean=1", "nu=semicircle"]])
    code = main(["verify-suite", "--manifest", str(manifest),
                 "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "manifest line 1" in capsys.readouterr().err


def test_verify_suite_row_with_a_stray_role_exits_two(tmp_path, capsys):
    manifest = tmp_path / "m.csv"
    _write_manifest(manifest, [["kind", "inputs..."], SMALL_ROWS[1],
                               ["ssfti", "mu=semicircle", "nu=semicircle", "theta=0.5"]])
    code = main(["verify-suite", "--manifest", str(manifest),
                 "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert ("manifest line 3 (SSFTI): SSFTI does not read 'theta'; it reads mu, nu"
            in capsys.readouterr().err)
    assert not (tmp_path / "s.csv").exists()
    # checked when the manifest is read: the row before it wrote no report
    assert not (tmp_path / "s_reports").exists()


@pytest.mark.parametrize("row, message", [
    (["free_talagrnd", "mu=semicircle"],
     "manifest line 3 (FREE_TALAGRND): unknown inequality kind 'FREE_TALAGRND'"),
    (["ssfti", "mu=semicircle"],
     "manifest line 3 (SSFTI): SSFTI needs a measure under 'nu', got nothing"),
])
def test_verify_suite_checks_every_row_before_any_runs(tmp_path, capsys, row, message):
    manifest = tmp_path / "m.csv"
    _write_manifest(manifest, [["kind", "inputs..."], SMALL_ROWS[1], row, SMALL_ROWS[3]])
    code = main(["verify-suite", "--manifest", str(manifest),
                 "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()
    assert not (tmp_path / "s_reports").exists()


@pytest.mark.parametrize("theta", ["abc", "1e999", "nan"])
def test_verify_suite_rejects_bad_theta_when_reading_the_manifest(tmp_path, capsys, theta):
    manifest = tmp_path / "m.csv"
    _write_manifest(manifest, [["free_brunn_minkowski", "f=quadratic:c=1", "g=quadratic:c=2",
                                "u3=quadratic:c=1.5", f"theta={theta}"]])
    code = main(["verify-suite", "--manifest", str(manifest),
                 "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert f"{manifest} line 1: theta '{theta}' is not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "s_reports").exists()


def test_verify_suite_missing_manifest_exits_four(tmp_path, capsys):
    code = main(["verify-suite", "--manifest", str(tmp_path / "nope.csv")])
    assert code == 4
    assert "i/o" in capsys.readouterr().err


def test_freelab_threads_must_be_positive_integer(tmp_path, monkeypatch, capsys):
    manifest = tmp_path / "m.csv"
    _write_manifest(manifest, [SMALL_ROWS[1]])
    monkeypatch.setenv("FREELAB_THREADS", "0")
    assert main(["verify-suite", "--manifest", str(manifest),
                 "--out", str(tmp_path / "s.csv")]) == 2
    monkeypatch.setenv("FREELAB_THREADS", "many")
    assert main(["verify-suite", "--manifest", str(manifest),
                 "--out", str(tmp_path / "s.csv")]) == 2
    capsys.readouterr()


def test_versioned_manifest_covers_every_kind():
    rows = _read_manifest(MANIFEST_V1)
    assert len(rows) >= 40
    assert {kind for _, kind, _ in rows} == set(KINDS)
    for _, kind, fields in rows:
        assert set(_verify_inputs(fields)) == set(fields)
        assert set(fields) <= _KINDS[kind].reads, kind


def test_python_dash_m_freelab_runs_from_a_checkout():
    import subprocess
    import sys

    root = os.path.join(os.path.dirname(__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-m", "freelab", "--help"], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: freelab")


def test_cli_commands_leave_scipy_interpolate_unloaded(tmp_path):
    # no command, and neither the Hilbert transform nor the EL residual,
    # needs scipy.interpolate
    import subprocess
    import sys

    root = os.path.join(os.path.dirname(__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    script = """
import sys
from freelab import cli
for argv in (["equilibrium", "--potential", "quartic:g=0.6"],
             ["pressure", "--potential", "halfline:slope=1"],
             ["verify", "ssfti", "--mu", "semicircle:var=2", "--nu", "semicircle:var=0.5"],
             ["verify", "inverse_free_lsi", "--f", "quartic:g=0.25"]):
    assert cli.main(argv) == 0, argv
from freelab import euler_lagrange_residual, hilbert_transform, make_semicircular, quadratic
sig = make_semicircular()
hilbert_transform(sig, [0.5, 3.0])
euler_lagrange_residual(sig, quadratic(1.0))
assert "scipy.interpolate" not in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=str(tmp_path),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_scipy_optimize_unloaded_until_a_walled_solve(tmp_path):
    # only the walled solves bracket a root; the soft solves, and importing
    # the package and its CLI, need no scipy.optimize
    import subprocess
    import sys

    from freelab.equilibrium import solve_equilibrium
    from freelab.potentials import linear_halfline

    root = os.path.join(os.path.dirname(__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    script = """
import sys
import freelab, freelab.cli
assert "scipy.optimize" not in sys.modules
assert freelab.cli.main(["verify", "inverse_free_lsi", "--f", "abs"]) == 0
assert "scipy.optimize" not in sys.modules
res = freelab.solve_equilibrium(freelab.linear_halfline(1.0))
assert "scipy.optimize" in sys.modules
print(repr(res.support_lo), repr(res.support_hi), res.method)
"""
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=str(tmp_path),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0, proc.stderr
    res = solve_equilibrium(linear_halfline(1.0))
    last = proc.stdout.splitlines()[-1].split()
    assert last == [repr(res.support_lo), repr(res.support_hi), "wall-left"]
