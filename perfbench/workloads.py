"""The four workloads: seeded op streams and the checks on their outputs.

Every workload is a closed loop with one client, cut into rounds.  A round
is a fixed list of strata (inequality kind, measure or potential family,
command) with parameters drawn from the seed, so every run measures the
same mix whatever the seed.  The first op of round 0 is the workload's
set-up op.  An op is parsing its spec strings with freelab's own parsers
plus the call, so construction cost counts.

Why each workload (see README.md for the layer each one loads):

* entropy   -- verify on the transport-entropy kinds: log-energy bound,
               never builds a Legendre conjugate.
* duality   -- verify on closed-form dual pairs plus direct solves of every
               closed-form family: solver bound, no log energy, no conjugate.
* conjugate -- kinds that build a numerical Legendre conjugate: bound by the
               conjugate's argmax walk and golden-section polish.
* cli       -- an in-process session of freelab.cli.main commands writing
               report files, with verify-suite on two worker threads.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random

import freelab.cli as cli
import freelab.equilibrium as equilibrium
import freelab.inequalities as inequalities

import oracles as ox

WORKLOADS = ("entropy", "duality", "conjugate", "cli")

# Relative tolerances (error / (1 + |exact|)), about 30x the errors seen
# at 4096 nodes: log energy 3.5e-7, quantile transport 3e-8, solver edges
# 1e-7, moment-map fixed point 6e-5.
TOL_ENTROPY = 1e-5
TOL_TRANSPORT = 1e-6
TOL_SOLVE = 1e-5
TOL_MOMENT_MAP = 2e-3

SUITE_THREADS = "2"


def num(x: float) -> str:
    """Spec text for a parameter; oracles use float(num(x)) so both sides
    see the same number."""
    return f"{x:.10g}"


class Checker:
    """Collects one op's verdict: failure, wrong output, oracle errors."""

    def __init__(self):
        self.failure = None
        self.wrong = None
        self.errors: list = []
        self.fingerprint: list = []

    def fail(self, why: str):
        if self.failure is None:
            self.failure = why

    def wrong_output(self, why: str):
        self.fail(why)
        if self.wrong is None:
            self.wrong = why

    def close(self, label: str, got, exact: float, tol: float):
        got = float(got)
        err = ox.rel_error(got, exact)
        self.errors.append(err)
        if not err <= tol:
            self.wrong_output(f"{label}: got {got!r}, closed form {exact!r}")

    def holds(self, passed: bool, what: str):
        if not passed:
            self.wrong_output(f"{what} reports passed=False on a statement that holds")


class Op:
    """One timed call.  `run(workdir)` is timed; `prepare` and `check` are not."""

    __slots__ = ("label", "run", "check", "prepare")

    def __init__(self, label, run, check, prepare=None):
        self.label = label
        self.run = run
        self.check = check
        self.prepare = prepare


# ---------------------------------------------------------------------------
# verify ops

def _measure_spec(kind: str, p: dict) -> str:
    if kind == "semicircle":
        return f"semicircle:mean={num(p['mean'])},var={num(p['var'])}"
    if kind == "arcsine":
        return f"arcsine:radius={num(p['radius'])},center={num(p['center'])}"
    if kind == "mp":
        return f"mp:scale={num(p['scale'])}"
    if kind == "translate":
        return f"translate:of=(arcsine:radius={num(p['radius'])}),a={num(p['center'])}"
    raise ValueError(kind)


def _rel_entropy(kind: str, p: dict) -> float:
    if kind == "semicircle":
        return ox.semicircle_rel_entropy(p["mean"], p["var"])
    if kind in ("arcsine", "translate"):
        return ox.arcsine_rel_entropy(p["radius"], p["center"])
    return ox.mp_rel_entropy(p["scale"])


def _mean(kind: str, p: dict) -> float:
    return p["scale"] if kind == "mp" else p.get("mean", p.get("center"))


def _w2sq(ka, pa, kb, pb):
    if ka == kb == "semicircle":
        return ox.w2sq_semicircles(pa["mean"], pa["var"], pb["mean"], pb["var"])
    if ka in ("arcsine", "translate") and kb in ("arcsine", "translate"):
        return ox.w2sq_arcsines(pa["center"], pa["radius"], pb["center"], pb["radius"])
    return None


def _rounded(p: dict) -> dict:
    return {k: float(num(v)) for k, v in p.items()}


def _verify_op(label, kind, specs, extra=None, oracle=None):
    """verify(kind) on parsed specs; `oracle(report, chk)` adds closed forms."""

    def run(workdir):
        inputs = {}
        for role, spec in specs.items():
            parse = cli.parse_measure if role in ("mu", "nu") else cli.parse_potential
            inputs[role] = parse(spec)
        if extra:
            inputs.update(extra)
        return inequalities.verify(kind, inputs)

    def check(report, chk, workdir):
        chk.fingerprint = [report.kind, repr(report.lhs), repr(report.rhs),
                           repr(report.deficit), report.passed, sorted(report.inputs.items())]
        chk.holds(report.passed, kind)
        if oracle is not None:
            oracle(report, chk)

    return Op(label, run, check)


def _sides(lhs=None, rhs=None, tol=TOL_ENTROPY):
    def oracle(report, chk):
        if lhs is not None:
            chk.close("lhs", report.lhs, lhs, tol)
        if rhs is not None:
            chk.close("rhs", report.rhs, rhs, tol)
    return oracle


def _solve_op(label, spec, lo=None, hi=None, pressure=None, energy=None):
    def run(workdir):
        return equilibrium.solve_equilibrium(cli.parse_potential(spec))

    def check(res, chk, workdir):
        chk.fingerprint = [repr(res.support_lo), repr(res.support_hi), repr(res.pressure),
                           repr(res.energy), repr(res.el_residual), repr(res.sd_residual)]
        for name, exact in (("support_lo", lo), ("support_hi", hi),
                            ("pressure", pressure), ("energy", energy)):
            if exact is not None:
                chk.close(f"{spec} {name}", getattr(res, name), exact, TOL_SOLVE)

    return Op(label, run, check)


# ---------------------------------------------------------------------------
# entropy

_TALAGRAND_FAMILIES = ("semicircle", "arcsine", "mp", "translate")
_LSI_FAMILIES = ("quadratic", "quartic", "poly", "abs")


def _draw_measure(rng, kind: str, centered: bool = False) -> dict:
    if kind == "semicircle":
        p = {"mean": 0.0 if centered else rng.uniform(-1.0, 1.0), "var": rng.uniform(0.5, 2.0)}
    elif kind in ("arcsine", "translate"):
        p = {"radius": rng.uniform(0.5, 2.0),
             "center": 0.0 if centered else rng.uniform(-0.5, 0.5)}
    else:
        p = {"scale": rng.uniform(0.5, 2.0)}
    return _rounded(p)


def _log_uniform(rng, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _entropy_round(rng, i: int):
    """Every measure and potential family once per round, so a run's mix
    does not depend on how many rounds fit in it."""
    ops = []
    for fam in _TALAGRAND_FAMILIES:
        p = _draw_measure(rng, fam)
        w2 = _w2sq("semicircle", {"mean": 0.0, "var": 1.0}, fam, p)
        ops.append(_verify_op(f"FREE_TALAGRAND/{fam}", "FREE_TALAGRAND",
                              {"mu": _measure_spec(fam, p)},
                              oracle=_sides(w2, 2.0 * _rel_entropy(fam, p))))

    for ka, kb in (("semicircle", "semicircle"), ("arcsine", "translate")):
        pa, pb = _draw_measure(rng, ka, centered=True), _draw_measure(rng, kb)
        ops.append(_verify_op(f"SSFTI/{ka}", "SSFTI",
                              {"mu": _measure_spec(ka, pa), "nu": _measure_spec(kb, pb)},
                              oracle=_sides(_w2sq(ka, pa, kb, pb),
                                            2.0 * _rel_entropy(ka, pa) + 2.0 * _rel_entropy(kb, pb))))
        pa, pb = _draw_measure(rng, ka), _draw_measure(rng, kb)
        rhs = 2.0 * _rel_entropy(ka, pa) + 2.0 * _rel_entropy(kb, pb) \
            - 2.0 * _mean(ka, pa) * _mean(kb, pb)
        ops.append(_verify_op(f"SSFTI_GENERAL/{ka}", "SSFTI_GENERAL",
                              {"mu": _measure_spec(ka, pa), "nu": _measure_spec(kb, pb)},
                              oracle=_sides(_w2sq(ka, pa, kb, pb), rhs)))

    for fam in _LSI_FAMILIES:
        oracle = None
        if fam == "quadratic":
            c = float(num(_log_uniform(rng, 0.25, 4.0)))
            spec = f"quadratic:c={num(c)}"
            # equality case: both sides are log(c) / 2
            oracle = _sides(0.5 * math.log(c), 0.5 * math.log(c))
        elif fam == "quartic":
            spec = f"quartic:g={num(rng.uniform(0.25, 1.0))}"
        elif fam == "poly":
            spec = f"poly:c2={num(rng.uniform(0.25, 1.0))},c4={num(rng.uniform(0.05, 0.25))}"
        else:
            spec = "abs"
        ops.append(_verify_op(f"INVERSE_FREE_LSI/{fam}", "INVERSE_FREE_LSI", {"f": spec},
                              oracle=oracle))
    return ops


# ---------------------------------------------------------------------------
# duality

_SOLVE_FAMILIES = ("quadratic", "quartic", "poly", "abs", "halfline", "arcsine")


def _solve_family(rng, fam: str) -> Op:
    """A direct solve with the family's closed-form support (and pressure
    or energy where known): soft edges, wall-left, and wall-both."""
    if fam == "quadratic":
        c = float(num(_log_uniform(rng, 0.25, 4.0)))
        edge = 2.0 / math.sqrt(c)
        return _solve_op("solve/quadratic", f"quadratic:c={num(c)}", -edge, edge,
                         ox.quadratic_pressure(c))
    if fam == "quartic":
        g = float(num(rng.uniform(0.25, 1.5)))
        edge = ox.quartic_support_edge(g)
        return _solve_op("solve/quartic", f"quartic:g={num(g)}", -edge, edge)
    if fam == "poly":
        c2 = float(num(rng.uniform(0.25, 1.0)))
        c4 = float(num(rng.uniform(0.05, 0.25)))
        edge = ox.poly_support_edge(c2, c4)
        return _solve_op("solve/poly", f"poly:c2={num(c2)},c4={num(c4)}", -edge, edge)
    if fam == "abs":
        return _solve_op("solve/abs", "abs", -ox.ABS_SUPPORT_EDGE, ox.ABS_SUPPORT_EDGE,
                         ox.ABS_PRESSURE, ox.ABS_ENERGY)
    if fam == "halfline":
        s = float(num(_log_uniform(rng, 0.5, 2.0)))
        return _solve_op("solve/halfline", f"halfline:slope={num(s)}",
                         0.0, ox.halfline_support_edge(s))
    r = float(num(rng.uniform(0.5, 2.0)))
    return _solve_op("solve/arcsine", f"arcsine:radius={num(r)}", -r, r,
                     ox.flat_well_pressure(r), ox.arcsine_log_energy(r))


def _duality_round(rng, i: int):
    ops = []
    q = lambda c: f"quadratic:c={num(c)}"

    c = float(num(_log_uniform(rng, 0.25, 4.0)))
    cp = float(num((1.0 + rng.uniform(0.0, 0.5)) / c))
    ops.append(_verify_op("FREE_SANTALO/quadratic", "FREE_SANTALO", {"f": q(c), "g": q(cp)},
                          oracle=_sides(ox.quadratic_pressure(c) + ox.quadratic_pressure(cp),
                                        ox.LOG_2PI, TOL_SOLVE)))

    c = float(num(_log_uniform(rng, 0.25, 4.0)))
    cp = float(num((1.0 + rng.uniform(0.0, 0.5)) / c))
    z = float(num(rng.uniform(-1.0, 1.0)))
    sides = _sides(ox.quadratic_pressure(c) + ox.quadratic_pressure(cp), ox.LOG_2PI, TOL_SOLVE)

    def shifted_oracle(report, chk, z=z, sides=sides):
        sides(report, chk)
        chk.close("santalo_point", float(report.inputs["santalo_point"]), z, TOL_SOLVE)

    ops.append(_verify_op("FREE_SANTALO_SHIFTED/quadratic", "FREE_SANTALO_SHIFTED",
                          {"f": f"shift:of=({q(c)}),z={num(z)}",
                           "g": f"tilt:of=({q(cp)}),lam={num(z)}"},
                          oracle=shifted_oracle))

    # f(x) + g(y) >= xy needs c2 >= 1 / (2c) once c4 >= 0
    c = float(num(_log_uniform(rng, 0.5, 2.0)))
    c2 = (1.0 + rng.uniform(0.0, 0.5)) / (2.0 * c)
    ops.append(_verify_op("FREE_SANTALO/poly", "FREE_SANTALO",
                          {"f": q(c), "g": f"poly:c2={num(c2)},c4={num(rng.uniform(0.05, 0.25))}"}))

    c1 = float(num(_log_uniform(rng, 0.5, 2.0)))
    c2 = float(num(_log_uniform(rng, 0.5, 2.0)))
    theta = float(num(rng.uniform(0.2, 0.8)))
    # the largest admissible u3 is quadratic(c*) with 1/c* = theta/c1 + (1-theta)/c2
    c3 = float(num(rng.uniform(0.7, 1.0) / (theta / c1 + (1.0 - theta) / c2)))
    ops.append(_verify_op("FREE_BRUNN_MINKOWSKI/quadratic", "FREE_BRUNN_MINKOWSKI",
                          {"f": q(c1), "g": q(c2), "u3": q(c3)}, extra={"theta": theta},
                          oracle=_sides(ox.quadratic_pressure(c3),
                                        theta * ox.quadratic_pressure(c1)
                                        + (1.0 - theta) * ox.quadratic_pressure(c2), TOL_SOLVE)))

    s1 = float(num(_log_uniform(rng, 0.5, 2.0)))
    s2 = float(num((1.0 + rng.uniform(0.0, 0.5)) / s1))
    ops.append(_verify_op("FREE_LOG_PREKOPA/halfline", "FREE_LOG_PREKOPA",
                          {"f": f"halfline:slope={num(s1)}", "g": f"halfline:slope={num(s2)}"},
                          oracle=_sides(ox.prekopa_lhs(s1, s2), math.log(math.pi), TOL_SOLVE)))

    # two solves per family, so the op mix is solve bound and its median
    # falls inside the solve latencies rather than on their edge
    for fam in _SOLVE_FAMILIES * 2:
        ops.append(_solve_family(rng, fam))
    return ops


# ---------------------------------------------------------------------------
# conjugate

# The solve of a numerical conjugate takes a Newton path that is chaotic in
# the potential's parameters: a 1% change of c in legendre(quadratic c)
# moves it between 25 and 122 conjugate evaluations.  Seeded parameters
# would make runs incomparable, so these potentials are the manifest's;
# the seed draws the flat-well radius, whose cost does not move, and the
# order of the other four ops.
_CONJUGATE_FIXED = (
    ("INVERSE_SANTALO/quadratic", "INVERSE_SANTALO", {"f": "quadratic:c=1"},
     _sides(ox.LOG_2PI, math.log(4.0), TOL_SOLVE)),
    ("INVERSE_SSFTI/abs", "INVERSE_SSFTI", {"f": "abs"},
     _sides(ox.abs_pair_rel_entropy(), None, TOL_SOLVE)),
    ("FREE_SANTALO_SHIFTED/quartic", "FREE_SANTALO_SHIFTED",
     {"f": "shift:of=(quartic:g=1),z=0.5", "g": "tilt:of=(legendre:of=(quartic:g=1)),lam=0.5"},
     None),
    ("INVERSE_SANTALO/poly", "INVERSE_SANTALO", {"f": "poly:c2=0.5,c4=0.125"}, None),
)


def _conjugate_round(rng, i: int):
    r = num(rng.uniform(0.8, 1.25))
    well = f"arcsine:radius={r}"
    ops = [_verify_op("FREE_SANTALO/arcsine", "FREE_SANTALO",
                      {"f": well, "g": f"legendre:of=({well})"},
                      oracle=_sides(ox.FLAT_WELL_CONJUGATE_SUM, ox.LOG_2PI, TOL_SOLVE))]
    rest = list(_CONJUGATE_FIXED)
    rng.shuffle(rest)
    ops += [_verify_op(label, kind, specs, oracle=oracle) for label, kind, specs, oracle in rest]
    return ops


# ---------------------------------------------------------------------------
# cli

def _files_digest(paths) -> list:
    out = []
    for path in paths:
        with open(path, "rb") as fh:
            out.append(hashlib.sha256(fh.read()).hexdigest())
    return out


def _cli_op(label, argv, outputs, check_files=None, prepare=None):
    """freelab.cli.main(argv) with stdout captured; exit code 0 expected.

    `argv` and `outputs` name files relative to the work directory; an
    output written before a non-zero exit is still checked.
    """

    def resolve(workdir):
        return [a.replace("{dir}", workdir) for a in argv]

    def run(workdir):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(resolve(workdir))
        return code, sink.getvalue()

    def check(result, chk, workdir):
        code, text = result
        paths = [os.path.join(workdir, name) for name in outputs]
        present = [p for p in paths if os.path.exists(p)]
        chk.fingerprint = [code] + _files_digest(present)
        if code != 0:
            last = text.strip().splitlines()[-1] if text.strip() else ""
            chk.fail(f"exit {code}: {last}")
        if len(present) != len(paths):
            chk.fail("missing output file")
            return
        if check_files is not None:
            check_files(paths, chk)

    return Op(label, run, check, prepare)


def _json(path):
    with open(path) as fh:
        return json.load(fh)


def _check_equilibrium(spec, lo, hi, pressure=None, energy=None):
    def check(paths, chk):
        data = _json(paths[0])
        chk.close(f"{spec} support_lo", data["support"][0], lo, TOL_SOLVE)
        chk.close(f"{spec} support_hi", data["support"][1], hi, TOL_SOLVE)
        if pressure is not None:
            chk.close(f"{spec} pressure", data["pressure"], pressure, TOL_SOLVE)
        if energy is not None:
            chk.close(f"{spec} energy", data["energy"], energy, TOL_SOLVE)
    return check


def _suite_rows(root: str, rng) -> list:
    """One manifest row per kind, drawn by the seed.

    Rows that conjugate a quartic or poly numerically are left to the
    conjugate workload: their cost is chaotic in the same way and 3-10 s
    each.  INVERSE_SANTALO and INVERSE_SSFTI always conjugate, so they
    take their quadratic:c=1 rows.
    """
    with open(os.path.join(root, "manifests", "verify_suite_v1.csv"), newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and r[0] != "kind"]
    by_kind: dict = {}
    for r in rows:
        by_kind.setdefault(r[0], []).append(r)
    chosen = []
    for kind, cands in by_kind.items():
        if kind in ("inverse_santalo", "inverse_ssfti"):
            cands = [r for r in cands if r[1:] == ["f=quadratic:c=1"]]
        else:
            cands = [r for r in cands if not any("legendre" in cell for cell in r)]
        chosen.append(rng.choice(cands))
    return chosen


def _cell(text: str) -> float:
    return {"infinity": math.inf, "neg_infinity": -math.inf}.get(text) or float(text)


def _suite_op(root: str, rng):
    rows = _suite_rows(root, rng)
    manifest = "suite_manifest.csv"

    def prepare(workdir):
        with open(os.path.join(workdir, manifest), "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["kind", "inputs..."])
            writer.writerows(rows)

    def check_files(paths, chk):
        with open(paths[0], newline="") as fh:
            summary = list(csv.reader(fh))[1:]
        if len(summary) != len(rows):
            chk.wrong_output(f"suite summary has {len(summary)} rows, manifest {len(rows)}")
        for cells in summary:
            chk.holds(cells[5] == "true", f"suite row {cells[0]}")
        reports_dir = os.path.splitext(paths[0])[0] + "_reports"
        names = sorted(os.listdir(reports_dir))
        loaded = {(r.kind, r.lhs, r.rhs) for r in
                  (cli.load_report(os.path.join(reports_dir, n)) for n in names)}
        listed = {(c[0], _cell(c[2]), _cell(c[3])) for c in summary}
        if loaded != listed:
            chk.wrong_output("suite report files disagree with the summary")
        chk.fingerprint += _files_digest(os.path.join(reports_dir, n) for n in names)

    return _cli_op("cli/verify-suite",
                   ["verify-suite", "--manifest", "{dir}/" + manifest, "--out", "{dir}/suite.csv"],
                   ["suite.csv"], check_files, prepare=prepare)


def _cli_families(rng) -> tuple:
    """One seeded draw of each closed-form family: (family, spec, support
    edge, pressure or None, energy or None)."""
    c = float(num(_log_uniform(rng, 0.25, 4.0)))
    g = float(num(rng.uniform(0.25, 1.5)))
    c2, c4 = float(num(rng.uniform(0.25, 1.0))), float(num(rng.uniform(0.05, 0.25)))
    s = float(num(_log_uniform(rng, 0.5, 2.0)))
    r = float(num(rng.uniform(0.5, 2.0)))
    return (
        ("quadratic", f"quadratic:c={num(c)}", 2.0 / math.sqrt(c), ox.quadratic_pressure(c), None),
        ("quartic", f"quartic:g={num(g)}", ox.quartic_support_edge(g), None, None),
        ("poly", f"poly:c2={num(c2)},c4={num(c4)}", ox.poly_support_edge(c2, c4), None, None),
        ("abs", "abs", ox.ABS_SUPPORT_EDGE, ox.ABS_PRESSURE, ox.ABS_ENERGY),
        ("halfline", f"halfline:slope={num(s)}", ox.halfline_support_edge(s), None, None),
        ("arcsine", f"arcsine:radius={num(r)}", r, ox.flat_well_pressure(r), ox.arcsine_log_energy(r)),
    )


def _interleave(long_ops: list, short_ops: list) -> list:
    """The first long op, then the short ops with the other long ops spread
    evenly between them, so the short ops sample the whole round."""
    rest = long_ops[1:]
    slots = [((m + 1) * len(short_ops) / (len(rest) + 1), op) for m, op in enumerate(rest)]
    out = long_ops[:1]
    for j, op in enumerate(short_ops):
        out.append(op)
        out += [o for pos, o in slots if j < pos <= j + 1]
    return out


def _cli_round(rng, i: int, root: str):
    # ops are long (0.5-9 s) or short (a solve, 0.1-0.2 s, or w2)
    ops, short = [], []
    v1, v2 = float(num(rng.uniform(0.25, 4.0))), float(num(rng.uniform(0.25, 4.0)))

    def ssfti_check(paths, chk, v1=v1, v2=v2):
        data = _json(paths[0])
        chk.holds(data["pass"] is True, "verify ssfti")
        chk.close("lhs", data["lhs"], ox.w2sq_semicircles(0.0, v1, 0.0, v2), TOL_TRANSPORT)
        chk.close("rhs", data["rhs"], 2.0 * ox.semicircle_rel_entropy(0.0, v1)
                  + 2.0 * ox.semicircle_rel_entropy(0.0, v2), TOL_ENTROPY)

    ops.append(_cli_op("cli/verify", ["verify", "ssfti", "--mu", f"semicircle:var={num(v1)}",
                                      "--nu", f"semicircle:var={num(v2)}", "--out", "{dir}/verify.json"],
                       ["verify.json"], ssfti_check))

    m1, m2 = float(num(rng.uniform(-1.0, 1.0))), float(num(rng.uniform(-1.0, 1.0)))
    short.append(_cli_op("cli/w2", ["w2", "--mu", f"semicircle:mean={num(m1)},var={num(v1)}",
                                    "--nu", f"semicircle:mean={num(m2)},var={num(v2)}",
                                    "--out", "{dir}/w2.json"], ["w2.json"],
                         lambda paths, chk, e=ox.w2sq_semicircles(m1, v1, m2, v2):
                         chk.close("cost_squared", _json(paths[0])["cost_squared"], e, TOL_TRANSPORT)))

    # two draws of every closed-form family, each through `equilibrium` and
    # `pressure`: most of the session's ops are these short solves, so the
    # median latency rests on 24 of them and sits inside their cluster
    families = _cli_families(rng) + _cli_families(rng)
    # legendre(quartic g=1) and abs are solved right, but the CLI rejects
    # them on their EL residual (exit 3); they count as failed ops
    lq = ox.power_support_edge(ox.legendre_quartic_coefficient(1.0), 4.0 / 3.0)
    for k, (fam, spec, edge, pressure, energy) in enumerate(
            families + (("legendre-quartic", "legendre:of=(quartic:g=1)", lq, None, None),)):
        lo = 0.0 if fam == "halfline" else -edge
        (ops if fam == "legendre-quartic" else short).append(
            _cli_op(f"cli/equilibrium/{fam}",
                    ["equilibrium", "--potential", spec, "--out", f"{{dir}}/eq_{k}.json"],
                    [f"eq_{k}.json"], _check_equilibrium(spec, lo, edge, pressure, energy)))
    for k, (fam, spec, _, pressure, _) in enumerate(families):
        short.append(_cli_op(f"cli/pressure/{fam}",
                             ["pressure", "--potential", spec, "--out", f"{{dir}}/p_{k}.json"],
                             [f"p_{k}.json"], None if pressure is None else
                             lambda paths, chk, spec=spec, e=pressure:
                             chk.close(f"{spec} pressure", _json(paths[0])["pressure"], e, TOL_SOLVE)))

    v = float(num(rng.uniform(1.2, 1.8)))

    def mm_check(paths, chk, v=v):
        # semicircle(var v) = (u')# nu_u for u = v x^2 / 2
        data = _json(paths[0])
        chk.close("moment-map pressure", data["pressure"], ox.quadratic_pressure(v), TOL_MOMENT_MAP)
        chk.close("moment-map support", data["support"][1], 2.0 / math.sqrt(v), TOL_MOMENT_MAP)

    ops.append(_cli_op("cli/moment-map", ["moment-map", "--mu", f"semicircle:var={num(v)}",
                                          "--out", "{dir}/mm.json"], ["mm.json"], mm_check))

    c = float(num(rng.uniform(0.5, 2.0)))
    seed = str(rng.randrange(2 ** 31))
    sweeps, chains, n = 900, 2, 64

    def sample_check(paths, chk, c=c):
        with open(paths[0], newline="") as fh:
            table = list(csv.reader(fh))[1:]
        if len(table) != sweeps * chains or any(len(row) != n + 1 for row in table):
            chk.wrong_output("rmt sample CSV has the wrong shape")
            return
        total = count = 0.0
        for row in table:
            xs = [float(x) for x in row[1:]]
            if any(b < a for a, b in zip(xs, xs[1:])):
                chk.wrong_output("rmt sample row is not sorted")
                return
            total += sum(x * x for x in xs)
            count += len(xs)
        # E[(1/N) tr M^2] = 1/c exactly at every N; 10% covers the chain's noise
        if not abs(total / count * c - 1.0) < 0.1:
            chk.wrong_output(f"rmt sample second moment {total / count!r}, expected {1.0 / c!r}")

    ops.append(_cli_op("cli/rmt-sample", ["rmt", "sample", "--potential", f"quadratic:c={num(c)}",
                                          "--n", str(n), "--sweeps", str(sweeps), "--chains", str(chains),
                                          "--seed", seed, "--out", "{dir}/sample.csv"],
                       ["sample.csv"], sample_check))

    def converge_check(paths, chk):
        data = _json(paths[0])
        stats = data["statistic"]
        if data["n_values"] != [8, 16, 32] or not all(0.0 < s < 1.0 for s in stats) \
                or not stats[-1] < 0.1:
            chk.wrong_output(f"rmt converge series {stats!r}")

    ops.append(_cli_op("cli/rmt-converge", ["rmt", "converge", "--potential", f"quadratic:c={num(c)}",
                                            "--ns", "8,16,32", "--sweeps", "200", "--chains", "2",
                                            "--seed", seed, "--out", "{dir}/converge.json"],
                       ["converge.json"], converge_check))

    ops.append(_suite_op(root, rng))
    # verify-ssfti stays first: it is the set-up op
    return _interleave(ops, short)


# ---------------------------------------------------------------------------

class Workload:
    """The op stream of one workload and seed; round i is reproducible alone."""

    def __init__(self, name: str, seed: int, root: str):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.root = root

    def round(self, i: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        if self.name == "entropy":
            return _entropy_round(rng, i)
        if self.name == "duality":
            return _duality_round(rng, i)
        if self.name == "conjugate":
            return _conjugate_round(rng, i)
        return _cli_round(rng, i, self.root)
