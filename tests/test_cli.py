import dataclasses
import json
import os

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
from freelab.cli import _read_manifest
from freelab.errors import InvalidInputError
from freelab.inequalities import KINDS, InequalityReport, verify
from freelab.measures import moment
from freelab.rmt import ConvergenceSeries
from freelab.transport import w2

MANIFEST_V1 = os.path.join(os.path.dirname(__file__), os.pardir,
                           "manifests", "verify_suite_v1.csv")


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


def test_cli_equilibrium_rejects_unmet_tolerance(capsys):
    code = main(["equilibrium", "--potential", "quartic:g=0.25",
                 "--nodes", "1024", "--tol", "1e-15"])
    assert code == 3
    assert "residual" in capsys.readouterr().err


def test_cli_verify_failure_exits_one(capsys):
    # mu passes the centering check (|mean| < 1e-8), but SSFTI needs an exact
    # barycenter: its exact deficit here is 2 m_mu m_nu = -1.8e-6
    code = main(["verify", "ssfti", "--mu", "semicircle:mean=-9e-9,var=1",
                 "--nu", "semicircle:mean=100,var=1", "--tol", "1e-9"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_hypothesis_violation_exits_two(capsys):
    code = main(["verify", "ssfti", "--mu", "semicircle:mean=1,var=1",
                 "--nu", "semicircle:mean=0,var=1"])
    assert code == 2
    assert "centered" in capsys.readouterr().err


def test_cli_parse_error_exits_two(capsys):
    code = main(["w2", "--mu", "semicircel:mean=0", "--nu", "semicircle"])
    assert code == 2
    assert "position" in capsys.readouterr().err


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


def test_cli_rmt_converge_rejects_bad_ns(capsys):
    code = main(["rmt", "converge", "--potential", "quadratic:c=1",
                 "--ns", "8,banana", "--out", "unused.json"])
    assert code == 2
    assert "--ns" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify-suite

def _write_manifest(path, rows):
    import csv

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
        for role, spec in fields.items():
            if role == "theta":
                float(spec)
            elif role in ("mu", "nu"):
                parse_measure(spec)
            else:
                parse_potential(spec)


def test_python_dash_m_freelab_runs_from_a_checkout():
    import subprocess
    import sys

    root = os.path.join(os.path.dirname(__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-m", "freelab", "--help"], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: freelab")
