"""Command-line front end: spec strings in, deterministic report files out.

Measures and potentials arrive as compact colon specs, e.g.
``semicircle:mean=0,var=1`` or ``quartic:g=0.25``; wrapped objects nest in
parentheses, as in ``shift:of=(quadratic:c=1),z=1``.  Reports leave as JSON
or CSV with every float printed to 17 significant digits and non-finite
values spelled out as the strings ``"infinity"`` / ``"neg_infinity"`` /
``"nan"``, and wall-clock fields pinned to zero, so one (config, seed) pair
always produces byte-identical files.

Exit codes: 0 success, 1 a verified statement failed, 2 bad input or a
failed hypothesis, 3 solver breakdown, 4 unwritable or unreadable files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ._angle_series import theta_density
from ._grids import DEFAULT_NODES, chebyshev_angles
from .equilibrium import (
    EquilibriumResult,
    SolverSettings,
    moment_map,
    solve_equilibrium,
)
from .errors import FreelabError, InvalidInputError
from .inequalities import InequalityReport, verify
from .measures import (
    GridMeasure,
    make_arcsine,
    make_marchenko_pastur_family,
    make_semicircular,
    translate,
)
from .potentials import (
    Potential,
    abs_potential,
    arcsine_indicator,
    legendre_transform,
    linear_halfline,
    polynomial_even,
    quadratic,
    quartic,
    shift_potential,
    tilt_linear,
)
from .rmt import ConvergenceSeries, empirical_vs_equilibrium, sample_eigenvalues
from .transport import TransportValue, w2

__all__ = [
    "RunConfig",
    "emit_report",
    "load_report",
    "main",
    "parse_measure",
    "parse_potential",
    "run",
]

SCHEMA_VERSION = 1

_COMMANDS = (
    "equilibrium",
    "pressure",
    "w2",
    "moment-map",
    "verify",
    "verify-suite",
    "rmt-sample",
    "rmt-converge",
)


# ---------------------------------------------------------------------------
# spec mini-language

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _spec_error(text: str, pos: int, msg: str) -> InvalidInputError:
    return InvalidInputError(f"spec {text!r}, position {pos}: {msg}")


def _parse_node(text: str, pos: int, heads, what: str):
    """One ``head:key=value,...`` clause; values are numbers or nested specs."""
    m = _NAME_RE.match(text, pos)
    if m is None:
        raise _spec_error(text, pos, f"expected a {what} name")
    head = m.group(0)
    if head not in heads:
        raise _spec_error(text, pos,
                          f"unknown {what} {head!r} (known: {', '.join(sorted(heads))})")
    pos = m.end()
    args: dict = {}
    if pos < len(text) and text[pos] == ":":
        pos += 1
        while True:
            m = _NAME_RE.match(text, pos)
            if m is None:
                raise _spec_error(text, pos, "expected key=value")
            key = m.group(0)
            pos = m.end()
            if pos >= len(text) or text[pos] != "=":
                raise _spec_error(text, pos, f"expected '=' after {key!r}")
            pos += 1
            if pos < len(text) and text[pos] == "(":
                val, pos = _parse_node(text, pos + 1, heads, what)
                if pos >= len(text) or text[pos] != ")":
                    raise _spec_error(text, pos, "expected ')'")
                pos += 1
            else:
                m = _NUMBER_RE.match(text, pos)
                if m is None:
                    raise _spec_error(text, pos, f"expected a number for {key!r}")
                val = float(m.group(0))
                pos = m.end()
            if key in args:
                raise _spec_error(text, pos, f"duplicate key {key!r}")
            args[key] = val
            if pos < len(text) and text[pos] == ",":
                pos += 1
                continue
            break
    return (head, args), pos


def _parse_spec(text: str, heads, what: str):
    text = text.strip()
    if not text:
        raise InvalidInputError(f"empty {what} spec")
    node, pos = _parse_node(text, 0, heads, what)
    if pos != len(text):
        raise _spec_error(text, pos, "trailing characters")
    return node


def _num_arg(args: dict, key: str, default=None) -> float:
    if key not in args:
        if default is None:
            raise InvalidInputError(f"missing required key {key!r}")
        return float(default)
    val = args.pop(key)
    if not isinstance(val, float):
        raise InvalidInputError(f"key {key!r} takes a number, not a nested spec")
    if not math.isfinite(val):
        raise InvalidInputError(f"key {key!r} must be finite, got {val!r}")
    return val


def _node_arg(args: dict, key: str):
    if key not in args:
        raise InvalidInputError(f"missing required key {key!r}")
    val = args.pop(key)
    if isinstance(val, float):
        raise InvalidInputError(f"key {key!r} takes a parenthesized spec")
    return val


# A spec table maps each head to the name of its factory in this module and
# the factory's arguments in call order, as (key, default) pairs: a default of
# None marks a required number, _SPEC a required nested spec of the same table.
# The factory is looked up by name at call time so that wrappers installed on
# this module's attributes (perfbench's traced runs) see every build.
_SPEC = object()

_MEASURE_SPECS = {
    "semicircle": ("make_semicircular", (("mean", 0.0), ("var", 1.0))),
    "arcsine": ("make_arcsine", (("radius", 1.0), ("center", 0.0))),
    "mp": ("make_marchenko_pastur_family", (("scale", 1.0),)),
    "translate": ("translate", (("of", _SPEC), ("a", None))),
}

_POTENTIAL_SPECS = {
    "quadratic": ("quadratic", (("c", 1.0),)),
    "quartic": ("quartic", (("g", 0.25),)),
    "poly": ("polynomial_even", (("c2", None), ("c4", None))),
    "abs": ("abs_potential", ()),
    "arcsine": ("arcsine_indicator", (("radius", 1.0),)),
    "halfline": ("linear_halfline", (("slope", 1.0),)),
    "shift": ("shift_potential", (("of", _SPEC), ("z", None))),
    "tilt": ("tilt_linear", (("of", _SPEC), ("lam", None))),
    "legendre": ("legendre_transform", (("of", _SPEC),)),
}


def _build(node, table: Mapping):
    head, args = node
    args = dict(args)
    factory, keys = table[head]
    values = [_build(_node_arg(args, key), table) if default is _SPEC
              else _num_arg(args, key, default) for key, default in keys]
    if args:
        raise InvalidInputError(f"{head!r} does not take keys {sorted(args)}")
    return globals()[factory](*values)


def parse_measure(text: str) -> GridMeasure:
    """Measure from a spec string, e.g. ``semicircle:mean=0,var=1``."""
    return _build(_parse_spec(text, _MEASURE_SPECS, "measure"), _MEASURE_SPECS)


def parse_potential(text: str) -> Potential:
    """Potential from a spec string, e.g. ``quartic:g=0.25``."""
    return _build(_parse_spec(text, _POTENTIAL_SPECS, "potential"), _POTENTIAL_SPECS)


# verify input roles, as --role options and manifest fields, with their parsers
_ROLES = {"mu": parse_measure, "nu": parse_measure, "f": parse_potential,
          "g": parse_potential, "u3": parse_potential, "theta": float}


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation; validation happens here, not in handlers."""

    command: str
    specs: Mapping[str, str]        # role -> raw spec string
    options: Mapping[str, object]   # command-specific extras
    nodes: int = DEFAULT_NODES
    tolerance: float = 1e-3
    seed: int = 0
    output_path: str | None = None
    format: str = "json"

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise InvalidInputError(f"unknown command {self.command!r}")
        if self.nodes < 256:
            raise InvalidInputError("nodes must be at least 256")
        if not 0.0 < self.tolerance < math.inf:
            raise InvalidInputError("tolerance must be positive and finite")
        if not 0 <= self.seed < 2 ** 63:
            raise InvalidInputError("seed must be a nonnegative 64-bit integer")
        if self.format not in ("json", "csv"):
            raise InvalidInputError(f"unknown format {self.format!r}")
        object.__setattr__(self, "specs", MappingProxyType(dict(self.specs)))
        object.__setattr__(self, "options", MappingProxyType(dict(self.options)))


def _settings(config: RunConfig) -> SolverSettings:
    # --tol governs reports; the solver keeps its own tight residual target
    return SolverSettings(nodes=config.nodes)


# ---------------------------------------------------------------------------
# report emission
#
# Every --out file leaves through ``_write``: a record is a JSON payload plus
# a CSV header and rows of raw values, and both writers spell each scalar with
# ``_scalar``.

_SENTINELS = {"infinity": np.inf, "neg_infinity": -np.inf, "nan": np.nan}


def _scalar(x) -> str:
    """One report value as text: floats to 17 significant digits, non-finite
    floats as a ``_SENTINELS`` word, booleans as ``true`` / ``false``."""
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isfinite(x):
            return "%.17g" % x
        return "nan" if math.isnan(x) else ("infinity" if x > 0 else "neg_infinity")
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def _json_text(obj, indent: int = 0) -> str:
    # floats first: most leaves are floats, and the Mapping check is slow
    if isinstance(obj, float):
        text = _scalar(obj)
        return f'"{text}"' if text in _SENTINELS else text
    pad = "  " * indent
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        body = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_json_text(v, indent + 1)}"
            for k, v in obj.items())
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(isinstance(v, float) or not isinstance(v, (Mapping, list, tuple))
               for v in obj):
            return "[" + ", ".join(_json_text(v) for v in obj) + "]"
        body = ",\n".join(f"{pad}  {_json_text(v, indent + 1)}" for v in obj)
        return "[\n" + body + "\n" + pad + "]"
    if obj is None:
        return "null"
    text = _scalar(obj)
    if isinstance(obj, (int, np.integer, np.floating)) and text not in _SENTINELS:
        return text
    return json.dumps(text)


def _write_json(payload: Mapping, path: str):
    with open(path, "w") as fh:
        fh.write(_json_text(payload) + "\n")


def _write_csv(path: str, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_scalar(x) for x in row] for row in rows)


def _write(path: str, format: str, payload: Mapping, header, rows):
    if format == "csv":
        _write_csv(path, header, rows)
    else:
        _write_json(payload, path)


def _payload(seed: int, fields: Mapping, **tables) -> dict:
    """v1 report layout: the record's fields between the schema version and
    the pinned wall clock and seed, then any long tables."""
    return {"schema_version": SCHEMA_VERSION, **fields,
            "runtime_ms": 0, "seed": seed, **tables}


def _load_float(value) -> float:
    return _SENTINELS[value] if isinstance(value, str) else float(value)


def _load_inputs(value) -> MappingProxyType:
    return MappingProxyType({str(k): str(v) for k, v in value.items()})


# (json key, InequalityReport attribute, loader), in file order; the emitter
# and ``load_report`` both read it
_INEQUALITY_FIELDS = (
    ("kind", "kind", str),
    ("lhs", "lhs", _load_float),
    ("rhs", "rhs", _load_float),
    ("deficit", "deficit", _load_float),
    ("pass", "passed", bool),
    ("tolerance", "tolerance", _load_float),
    ("inputs", "inputs", _load_inputs),
    ("resolution", "resolution", int),
)

_SUMMARY_HEADER = ["kind", "inputs", "lhs", "rhs", "deficit", "pass"]


def _summary_row(report: InequalityReport):
    inputs = " ".join(f"{k}={v}" for k, v in report.inputs.items())
    return [report.kind, inputs, report.lhs, report.rhs, report.deficit, report.passed]


def _inequality_record(report: InequalityReport, seed: int):
    fields = {key: getattr(report, attr) for key, attr, _ in _INEQUALITY_FIELDS}
    return _payload(seed, fields), _SUMMARY_HEADER, [_summary_row(report)]


def _density_table(res: EquilibriumResult) -> list:
    """The solve's density at 4096 Chebyshev nodes m - r cos(theta_j) of its
    support, G'(pi - theta_j) / (r sin theta_j) from its series, divided by
    its trapezoid mass and thinned to 1025 (x, density) rows."""
    m, r, tau = res.series
    theta = chebyshev_angles(DEFAULT_NODES)
    nodes = m - r * np.cos(theta)
    rho = theta_density(tau, DEFAULT_NODES)[::-1] / (r * np.sin(theta))
    rho = rho / np.trapezoid(rho, nodes)
    idx = np.unique(np.linspace(0, nodes.size - 1, 1025).round().astype(int))
    return np.column_stack((nodes[idx], rho[idx])).tolist()


def _solve_fields(label: str, res: EquilibriumResult, *names) -> dict:
    """Leading fields of equilibrium and moment-map reports."""
    return {"measure": label, "support": [res.support_lo, res.support_hi],
            **{name: getattr(res, name) for name in ("el_constant", "pressure", *names)}}


def _equilibrium_record(res: EquilibriumResult, seed: int):
    table = _density_table(res)
    fields = _solve_fields(res.measure.label, res, "el_residual", "sd_residual", "energy",
                           "potential_moment", "iterations", "method", "converged")
    return _payload(seed, fields, density=table), ["x", "density"], table


def _series_record(series: ConvergenceSeries, seed: int):
    ns, stats = [int(n) for n in series.n_values], [float(s) for s in series.statistic]
    fields = {"label": series.label, "target": series.target, "n_values": ns, "statistic": stats}
    rows = [[n, s, series.target] for n, s in zip(ns, stats)]
    return _payload(seed, fields), ["N", "statistic", "target"], rows


def _transport_record(val: TransportValue, seed: int):
    fields = {"cost": val.cost, "cost_squared": val.cost_squared,
              "coupling": val.coupling_descriptor, "resolution": val.resolution}
    return _payload(seed, fields), ["cost", "cost_squared"], [[val.cost, val.cost_squared]]


_RECORDS = {
    InequalityReport: _inequality_record,
    EquilibriumResult: _equilibrium_record,
    ConvergenceSeries: _series_record,
    TransportValue: _transport_record,
}


def emit_report(report, path: str, format: str = "json", seed: int = 0):
    """Serialize a report deterministically; wall-clock fields become zero."""
    record = _RECORDS.get(type(report))
    if record is None:
        raise InvalidInputError(f"cannot serialize {type(report).__name__}")
    _write(path, format, *record(report, seed))


def load_report(path: str) -> InequalityReport:
    """Inverse of ``emit_report`` for inequality reports."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise InvalidInputError(f"report file {path} is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InvalidInputError(f"report file {path} is not a JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise InvalidInputError(f"report file {path}: unsupported schema_version "
                                f"{data.get('schema_version')!r}")
    fields = {}
    for key, attr, load in (*_INEQUALITY_FIELDS, ("runtime_ms", "runtime_ms", int)):
        if key not in data:
            raise InvalidInputError(f"report file {path} is missing field {key!r}")
        try:
            fields[attr] = load(data[key])
        except (AttributeError, KeyError, TypeError, ValueError):
            raise InvalidInputError(f"report file {path}: field {key!r} cannot be "
                                    f"read from {data[key]!r}") from None
    try:
        return InequalityReport(**fields)
    except InvalidInputError as exc:
        raise InvalidInputError(f"report file {path}: {exc}") from None


# ---------------------------------------------------------------------------
# command handlers

def _cmd_equilibrium(config: RunConfig) -> int:
    u = parse_potential(config.specs["potential"])
    res = solve_equilibrium(u, _settings(config))
    print(f"equilibrium({u.label}): support [{res.support_lo:.12g}, "
          f"{res.support_hi:.12g}], pressure {res.pressure:.12g}, "
          f"el residual {res.el_residual:.3g}")
    if config.output_path:
        emit_report(res, config.output_path, config.format, seed=config.seed)
    if not res.converged or res.el_residual > config.tolerance:
        print(f"freelab: error: residual {res.el_residual:.3g} above "
              f"tolerance {config.tolerance:g}", file=sys.stderr)
        return 3
    return 0


def _cmd_pressure(config: RunConfig) -> int:
    u = parse_potential(config.specs["potential"])
    res = solve_equilibrium(u, _settings(config))
    print(f"pressure({u.label}) = {res.pressure:.12g}")
    if config.output_path:
        fields = {"potential": u.label, "pressure": res.pressure, "nodes": config.nodes}
        _write(config.output_path, config.format, _payload(config.seed, fields),
               ["potential", "pressure"], [[u.label, res.pressure]])
    return 0


def _cmd_w2(config: RunConfig) -> int:
    mu = parse_measure(config.specs["mu"])
    nu = parse_measure(config.specs["nu"])
    val = w2(mu, nu)
    print(f"w2({mu.label}, {nu.label}) = {val.cost:.12g}, "
          f"cost^2 = {val.cost_squared:.12g}")
    if config.output_path:
        emit_report(val, config.output_path, config.format, seed=config.seed)
    return 0


def _cmd_moment_map(config: RunConfig) -> int:
    mu = parse_measure(config.specs["mu"])
    u, res = moment_map(mu, _settings(config))
    print(f"moment-map({mu.label}): equilibrium support [{res.support_lo:.12g}, "
          f"{res.support_hi:.12g}], pressure {res.pressure:.12g}")
    if config.output_path:
        pad = 0.25 * (res.support_hi - res.support_lo)
        xs = np.linspace(res.support_lo - pad, res.support_hi + pad, 513)
        table = np.column_stack((xs, u.value(xs))).tolist()
        _write(config.output_path, config.format,
               _payload(config.seed, _solve_fields(mu.label, res), potential=table),
               ["x", "u"], table)
    return 0


def _canonical_kind(raw: str) -> str:
    return raw.strip().upper().replace("-", "_")


def _verify_inputs(fields: Mapping[str, str]) -> dict:
    inputs: dict = {}
    for role, spec in fields.items():
        if role not in _ROLES:
            raise InvalidInputError(f"unknown input role {role!r} "
                                    f"(expected one of {', '.join(_ROLES)})")
        inputs[role] = _ROLES[role](spec)
    return inputs


def _report_line(report: InequalityReport) -> str:
    verdict = "pass" if report.passed else "FAIL"
    return (f"{report.kind}: lhs={report.lhs:.12g} rhs={report.rhs:.12g} "
            f"deficit={report.deficit:.12g} {verdict}")


def _cmd_verify(config: RunConfig) -> int:
    kind = _canonical_kind(str(config.options["kind"]))
    report = verify(kind, _verify_inputs(config.specs), tol=config.tolerance,
                    cfg=_settings(config))
    print(_report_line(report))
    if config.output_path:
        emit_report(report, config.output_path, config.format, seed=config.seed)
    return 0 if report.passed else 1


def _is_finite_number(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _read_manifest(path: str):
    """Rows ``kind, role=spec, ...``; blank lines, comments, and an optional
    header row are skipped."""
    rows = []
    with open(path, newline="") as fh:
        for lineno, rec in enumerate(csv.reader(fh), start=1):
            if not rec or not rec[0].strip() or rec[0].lstrip().startswith("#"):
                continue
            kind = rec[0].strip()
            if lineno == 1 and kind.lower() == "kind":
                continue
            fields: dict = {}
            for cell in rec[1:]:
                cell = cell.strip()
                if not cell:
                    continue
                role, sep, spec = cell.partition("=")
                if not sep:
                    raise InvalidInputError(
                        f"{path} line {lineno}: field {cell!r} is not role=spec")
                role = role.strip()
                if role not in _ROLES:
                    raise InvalidInputError(
                        f"{path} line {lineno}: unknown role {role!r}")
                if role in fields:
                    raise InvalidInputError(
                        f"{path} line {lineno}: duplicate role {role!r}")
                spec = spec.strip()
                if role == "theta" and not _is_finite_number(spec):
                    raise InvalidInputError(
                        f"{path} line {lineno}: theta {spec!r} is not a finite number")
                fields[role] = spec
            rows.append((lineno, _canonical_kind(kind), fields))
    if not rows:
        raise InvalidInputError(f"manifest {path} has no verification rows")
    return rows


def _worker_cap(jobs: int) -> int:
    raw = os.environ.get("FREELAB_THREADS", "").strip()
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            raise InvalidInputError(f"FREELAB_THREADS={raw!r} is not an integer") from None
        if cap < 1:
            raise InvalidInputError("FREELAB_THREADS must be at least 1")
    else:
        cap = min(4, os.cpu_count() or 1)
    return max(1, min(jobs, cap))


def _suite_paths(config: RunConfig):
    summary = config.output_path or "verify_suite_summary.csv"
    stem, ext = os.path.splitext(summary)
    return summary, (stem if ext else summary) + "_reports"


def _cmd_verify_suite(config: RunConfig) -> int:
    rows = _read_manifest(str(config.options["manifest"]))
    summary_path, reports_dir = _suite_paths(config)
    os.makedirs(reports_dir, exist_ok=True)
    cfg = _settings(config)

    def job(index_row):
        index, (lineno, kind, fields) = index_row
        try:
            report = verify(kind, _verify_inputs(fields),
                            tol=config.tolerance, cfg=cfg)
        except FreelabError as exc:
            raise type(exc)(f"manifest line {lineno} ({kind}): {exc}") from exc
        name = f"row{index:03d}_{report.kind.lower()}.json"
        emit_report(report, os.path.join(reports_dir, name), "json",
                    seed=config.seed)
        return report

    # each task writes its own report file; the summary is written last,
    # single-threaded, in (kind, inputs) order
    with ThreadPoolExecutor(max_workers=_worker_cap(len(rows))) as pool:
        futures = [pool.submit(job, item) for item in enumerate(rows)]
        reports = [f.result() for f in futures]

    summary = sorted((_summary_row(r) for r in reports), key=lambda r: (r[0], r[1]))
    _write_csv(summary_path, _SUMMARY_HEADER, summary)
    failed = sum(1 for r in reports if not r.passed)
    print(f"verify-suite: {len(reports)} reports, {failed} failed; "
          f"summary at {summary_path}")
    return 0 if failed == 0 else 1


def _cmd_rmt_sample(config: RunConfig) -> int:
    if not config.output_path:
        raise InvalidInputError("rmt sample writes eigenvalue CSV; pass --out")
    u = parse_potential(config.specs["potential"])
    sample = sample_eigenvalues(
        u, int(config.options["n"]), int(config.options["sweeps"]),
        seed=config.seed, chains=int(config.options["chains"]))
    header = ["sweep"] + [f"eig_{j}" for j in range(1, sample.N + 1)]
    rows = [[i, *xs] for i, xs in enumerate(sample.eigenvalue_sets)]
    _write_csv(config.output_path, header, rows)
    print(f"rmt sample({u.label}): N={sample.N}, retained "
          f"{len(sample.eigenvalue_sets)} sweeps over {sample.chains} chain(s), "
          f"acceptance {sample.acceptance_rate:.3f}")
    return 0


def _cmd_rmt_converge(config: RunConfig) -> int:
    u = parse_potential(config.specs["potential"])
    ns = list(config.options["ns"])
    eq = solve_equilibrium(u, _settings(config))
    children = np.random.SeedSequence(config.seed).spawn(len(ns))
    samples = [
        sample_eigenvalues(u, n, int(config.options["sweeps"]),
                           seed=int(child.generate_state(1)[0]),
                           chains=int(config.options["chains"]))
        for n, child in zip(ns, children)
    ]
    series = empirical_vs_equilibrium(samples, eq)
    print(f"rmt converge({u.label}): ks {series.statistic[0]:.4g} -> "
          f"{series.statistic[-1]:.4g} over N={','.join(str(n) for n in ns)}")
    if config.output_path:
        emit_report(series, config.output_path, config.format, seed=config.seed)
    return 0


_HANDLERS = {
    "equilibrium": _cmd_equilibrium,
    "pressure": _cmd_pressure,
    "w2": _cmd_w2,
    "moment-map": _cmd_moment_map,
    "verify": _cmd_verify,
    "verify-suite": _cmd_verify_suite,
    "rmt-sample": _cmd_rmt_sample,
    "rmt-converge": _cmd_rmt_converge,
}


def run(config: RunConfig) -> int:
    """Execute one command; exceptions become exit codes, not tracebacks."""
    try:
        return _HANDLERS[config.command](config)
    except FreelabError as exc:
        print(f"freelab: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"freelab: i/o error: {exc}", file=sys.stderr)
        return 4


# ---------------------------------------------------------------------------
# argument parsing

def _parse_ns(raw: str):
    try:
        values = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise InvalidInputError(f"--ns {raw!r} is not a comma list of integers") from None
    if not values:
        raise InvalidInputError("--ns needs at least one matrix size")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise InvalidInputError(f"--ns {raw!r} is not strictly increasing")
    return values


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--nodes", type=int, default=DEFAULT_NODES,
                        help="grid resolution for solves (default %(default)s)")
    common.add_argument("--tol", type=float, default=1e-3,
                        help="report tolerance (default %(default)s)")
    common.add_argument("--seed", type=int, default=0,
                        help="random seed recorded in reports")
    common.add_argument("--out", metavar="PATH", default=None,
                        help="report file to write")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="report format (default %(default)s); rmt sample always "
                             "writes CSV, verify-suite JSON reports plus a CSV summary")

    parser = argparse.ArgumentParser(
        prog="freelab",
        description="Free-probability numerics: equilibrium measures, "
                    "pressure, transport, inequality certification, and "
                    "finite-size matrix checks.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("equilibrium", parents=[common],
                       help="solve the equilibrium measure of a potential")
    p.add_argument("--potential", required=True, metavar="SPEC")

    p = sub.add_parser("pressure", parents=[common],
                       help="free pressure of a potential")
    p.add_argument("--potential", required=True, metavar="SPEC")

    p = sub.add_parser("w2", parents=[common],
                       help="quadratic transport cost between two measures")
    p.add_argument("--mu", required=True, metavar="SPEC")
    p.add_argument("--nu", required=True, metavar="SPEC")

    p = sub.add_parser("moment-map", parents=[common],
                       help="convex potential whose equilibrium transports to mu")
    p.add_argument("--mu", required=True, metavar="SPEC")

    p = sub.add_parser("verify", parents=[common],
                       help="evaluate both sides of one inequality")
    p.add_argument("kind", help="inequality kind, e.g. ssfti or free_talagrand")
    p.add_argument("--mu", metavar="SPEC")
    p.add_argument("--nu", metavar="SPEC")
    p.add_argument("--f", metavar="SPEC")
    p.add_argument("--g", metavar="SPEC")
    p.add_argument("--u3", metavar="SPEC",
                   help="third potential for the interpolation kind")
    p.add_argument("--theta", type=float, default=None,
                   help="interpolation weight in (0, 1)")

    p = sub.add_parser("verify-suite", parents=[common],
                       help="run a CSV manifest of verifications")
    p.add_argument("--manifest", required=True, metavar="PATH")

    p = sub.add_parser("rmt", help="finite-size random-matrix commands")
    rsub = p.add_subparsers(dest="rmt_command", required=True, metavar="command")

    q = rsub.add_parser("sample", parents=[common],
                        help="Metropolis eigenvalue samples to CSV")
    q.add_argument("--potential", required=True, metavar="SPEC")
    q.add_argument("--n", type=int, required=True, help="matrix size")
    q.add_argument("--sweeps", type=int, default=500,
                   help="retained sweeps per chain (default %(default)s)")
    q.add_argument("--chains", type=int, default=1,
                   help="independent chains (default %(default)s)")

    q = rsub.add_parser("converge", parents=[common],
                        help="KS distance to the equilibrium along N")
    q.add_argument("--potential", required=True, metavar="SPEC")
    q.add_argument("--ns", required=True, metavar="N1,N2,...",
                   help="comma list of increasing matrix sizes")
    q.add_argument("--sweeps", type=int, default=300,
                   help="retained sweeps per chain (default %(default)s)")
    q.add_argument("--chains", type=int, default=2,
                   help="independent chains (default %(default)s)")

    return parser


def _config_from(ns: argparse.Namespace) -> RunConfig:
    specs = {}
    options = {}
    command = ns.command
    if command == "rmt":
        command = f"rmt-{ns.rmt_command}"
        specs["potential"] = ns.potential
        options["sweeps"] = ns.sweeps
        options["chains"] = ns.chains
        if ns.rmt_command == "sample":
            options["n"] = ns.n
        else:
            options["ns"] = _parse_ns(ns.ns)
    elif command in ("equilibrium", "pressure"):
        specs["potential"] = ns.potential
    elif command == "w2":
        specs["mu"] = ns.mu
        specs["nu"] = ns.nu
    elif command == "moment-map":
        specs["mu"] = ns.mu
    elif command == "verify":
        options["kind"] = ns.kind
        specs.update((role, str(getattr(ns, role))) for role in _ROLES
                     if getattr(ns, role) is not None)
    elif command == "verify-suite":
        options["manifest"] = ns.manifest
    return RunConfig(
        command=command,
        specs=specs,
        options=options,
        nodes=ns.nodes,
        tolerance=ns.tol,
        seed=ns.seed,
        output_path=ns.out,
        format=ns.format,
    )


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        config = _config_from(ns)
    except FreelabError as exc:
        print(f"freelab: error: {exc}", file=sys.stderr)
        return exc.exit_code
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
