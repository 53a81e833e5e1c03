"""Workload inputs, operations and output checks.

Each workload turns a seed into inputs (``setup``) and exposes the
operations of one pass.  An operation returns an outcome record: what the
program decided (verdict, certificate, reset count) plus ``failure``, the
reason the benchmark's own check rejected it, or None.  Calls go through
module attributes (``nsv.certify_first_order``) so that the traced run's
wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from resetcert import elements, errors, frf, gsore, hbeta, lti, nsv, sim
from resetcert.cli import cglp_pid_blocks

ONE = lti.tf([1.0])
FO_REPEATS = 5             # fo_population: repeats of the 24 strata per pass
FO_POINTS = 2000           # CLI default grid
GSORE_POINTS = 400         # gsore_search grid (see README: CLI default is 2000)
GSORE_SCALES = 2           # frequency scales per GSORE fixture and pass
SIM_FIXTURES = (0, 1, 4, 22, 41, 43)   # criterion-10 fixture loops simulated
SIM_TAUS = 200.0
FRF_ROWS = 1200            # rows of a measured plant table
LOOP_MODULUS_MARGIN = 0.15  # min |1 + L| of a fo_population loop (see README)


@dataclass
class Op:
    id: str
    run: object            # () -> outcome dict


@dataclass
class Plan:
    """Inputs of one set-up: the operations of one pass, run in order."""

    ops: list
    info: dict = field(default_factory=dict)
    subprocess_ops: bool = False           # peak RSS is the children's


def guarded(op_id: str, fn):
    """Run ``fn`` -> outcome; a raised error becomes a failed outcome."""
    try:
        out = fn()
    except errors.ResetCertError as exc:
        out = {"failure": f"{type(exc).__name__}: {exc}"}
    except Exception as exc:           # keep the run going; record the trace
        out = {"failure": f"crash {type(exc).__name__}: {exc}",
               "traceback": traceback.format_exc(limit=4)}
    out.setdefault("failure", None)
    return {"id": op_id, **out}


def make_op(op_id: str, fn, *args) -> Op:
    return Op(op_id, lambda: guarded(op_id, lambda: fn(*args)))


def _finite(x):
    return float(x) if math.isfinite(x) else None


# ---------------------------------------------------------------------------
# fo_population: first-order and SOSRE verdicts plus the scalar oracle
# ---------------------------------------------------------------------------

FO_KINDS = ("GFORE", "PCI", "CI", "SOSRE")
FO_STRATA = [(kind, order, shaping) for shaping in ("unit", "lead_lag")
             for order in (1, 2, 3) for kind in FO_KINDS]


@dataclass(frozen=True)
class FoLoop:
    id: str
    element: object
    plant: object          # RationalTF or FrfTable
    c_s: object
    architecture: str
    asymptote: tuple | None

    @property
    def variant(self):
        if self.element.kind == "SOSRE":
            return "sosre"
        return "modified" if self.architecture == "modified" else "standard"


def latin_hypercube(rng, n: int, dims: int) -> np.ndarray:
    """n x dims uniforms on [0, 1), one per 1/n slice in every column, so
    each seed's population covers every parameter range evenly."""
    slots = np.stack([rng.permutation(n) for _ in range(dims)], axis=1)
    return (slots + rng.random((n, dims))) / n


def _span(u, lo, hi):
    return lo + (hi - lo) * u


def _first_order_plant(u, order):
    """Gain 10^U(-0.7, 0.4) over poles at 10^U(-0.7, 0.7), from uniforms u."""
    den = [1.0]
    poles = 10.0 ** _span(np.asarray(u[1:1 + order]), -0.7, 0.7)
    for p in poles:
        den = np.convolve(den, [1.0, 1.0 / p])
    return lti.tf([10.0 ** _span(u[0], -0.7, 0.4)], den), poles


def fo_loops(seed: int, repeats: int = FO_REPEATS) -> list[FoLoop]:
    """Stratified population: every repeat holds the 24 (kind, plant order,
    shaping) strata once.  Odd repeats put the lead-lag filter inside the
    loop (modified architecture, non-SOSRE); repeats 1 and 3 give GFORE and
    SOSRE plants as measured FRF tables with declared asymptotes (20 %).
    Continuous parameters come from a Latin hypercube over the population.
    A loop's plant is redrawn until min |1 + L| >= LOOP_MODULUS_MARGIN on a
    band of +-2 decades around its features.  Closer to -1 the CLI default
    grid refuses the loop by design: a measured table fails the winding
    count of the FRF path, and a rational loop's NSV angle can still jump by
    pi/6 or more between samples after the grid refinement (SparseGrid)."""
    rng = np.random.default_rng([seed, 1])
    cube = latin_hypercube(rng, repeats * len(FO_STRATA), 9)
    loops = []
    for r in range(repeats):
        for kind, order, shaping in FO_STRATA:
            u = cube[len(loops)]
            wr = 10.0 ** _span(u[0], -0.5, 0.5)
            gamma = float(_span(u[1], -0.8, 0.8))
            if kind == "GFORE":
                elem = elements.gfore(wr, gamma)
            elif kind == "PCI":
                elem = elements.pci(wr, gamma)
            elif kind == "CI":
                elem = elements.clegg(gamma)
            else:
                elem = elements.sosre(wr, float(_span(u[2], 0.5, 1.0)), gamma)
            c_s, corners = ONE, []
            if shaping == "lead_lag":
                z = wr * 10.0 ** _span(u[3], -0.5, 0.0)
                p = z * 10.0 ** _span(u[4], 0.5, 1.0)
                c_s, corners = lti.tf([1.0, 1.0 / z], [1.0, 1.0 / p]), [z, p]
            arch = "modified" if (shaping == "lead_lag" and kind != "SOSRE"
                                  and r % 2 == 1) else "standard"
            measured = kind in ("GFORE", "SOSRE") and r in (1, 3)
            plant_u = u[5:]
            while True:
                plant, poles = _first_order_plant(plant_u, order)
                feats = [*poles, wr, *corners]
                band = np.logspace(np.log10(min(feats)) - 2.0,
                                   np.log10(max(feats)) + 2.0, FRF_ROWS)
                loop = lti.evaluate(elements.base_tf(elem), band) * lti.evaluate(plant, band)
                if arch == "modified":
                    loop = loop * lti.evaluate(c_s, band)
                if np.min(np.abs(1.0 + loop)) >= LOOP_MODULUS_MARGIN:
                    break
                plant_u = rng.random(4)
            asym = None
            if measured:
                plant = frf.FrfTable(band, lti.evaluate(plant, band))
                asym = (0, -(1 if kind == "GFORE" else 2) - order)
            loops.append(FoLoop(f"fo{len(loops):03d}-{kind}-o{order}-{shaping}-{arch}"
                                + ("-frf" if asym else ""),
                                elem, plant, c_s, arch, asym))
    return loops


def fo_op(loop: FoLoop) -> dict:
    """One verdict; a certified loop must also pass the scalar SPR oracle."""
    verdict = nsv.certify_first_order(loop.element, ONE, ONE, loop.plant,
                                      c_s=loop.c_s, architecture=loop.architecture,
                                      points=FO_POINTS, asymptote=loop.asymptote)
    tv = verdict.type_verdict
    out = {"certified": bool(verdict.certified), "theta1": tv.theta1,
           "theta2": tv.theta2, "grid": None, "oracle": None}
    if verdict.certified:
        samples, _ = nsv.nsv_grid_samples(loop.plant, ONE, ONE, loop.c_s, loop.element,
                                          variant=loop.variant, points=FO_POINTS)
        p_lin = None
        if not isinstance(loop.plant, frf.FrfTable):
            p_lin = hbeta.loop_invariants(loop.element, ONE, ONE, loop.plant, loop.c_s)[0]
        cand = hbeta.search_candidate_scalar(samples, loop.element, loop.c_s, p_lin,
                                             loop.variant)
        passed = cand is not None and hbeta.spr_check_scalar(
            cand, samples, loop.element, loop.c_s, p_lin, loop.variant).passed
        out["grid"] = int(samples.omega.size)
        out["oracle"] = "pass" if passed else "fail"
        if not passed:
            out["failure"] = "certified loop has no passing scalar SPR candidate"
    return out


def setup_fo_population(seed: int, workdir: str, runner=None) -> Plan:
    loops = fo_loops(seed)
    ops = [make_op(lp.id, fo_op, lp) for lp in loops]
    return Plan(ops, {"loops": len(loops),
                      "frf_loops": sum(lp.asymptote is not None for lp in loops)})


# ---------------------------------------------------------------------------
# gsore_search: one fixture per problem class, certified and re-checked
# ---------------------------------------------------------------------------

def gsore_fixture_blocks():
    """Acceptance fixture: double-integrator plant under CgLp+PID (Type III)."""
    wc, wd, wr, wp = 10.0, 36.0, 40.0, 200.0
    g = lti.tf([1.0], np.convolve([0.0, 0.0, 1.0],
                                  np.convolve([1.0, 1 / wp], [1.0, 1 / wp])))
    elem = elements.gsore(wr, 1.0, 0.5, 0.5)
    probe = lti.series(elements.base_tf(elem),
                       lti.series(cglp_pid_blocks(1.0, wc, wd, 1.0), g))
    k_p = 1.0 / abs(lti.evaluate(probe, wc))
    return elem, ONE, cglp_pid_blocks(k_p, wc, wd, 1.0), g


def gsore_fixtures():
    return {
        "III": gsore_fixture_blocks(),
        "IV": (elements.gsore(2.0, 1.0, 0.3, 0.5), ONE, ONE,
               lti.tf([1.0], np.convolve([1.0, 1.0], [1.0, 0.5]))),
        "V": (elements.gsore(2.0, 1.0, 0.4, 0.4), ONE, ONE, lti.tf([0.8], [1.0, 1.0])),
    }


def frequency_scaled(blocks, a: float):
    """The same loop with time scaled by 1/a (s -> s/a), an exact symmetry
    of the certificate problem: the element corner moves to a*omega_r and
    c_l2 absorbs the a^2 gain the element's base filter picks up."""
    elem, c_l1, c_l2, g = blocks

    def s_over_a(t, gain=1.0):
        return lti.tf(gain * np.asarray(t.num) / a ** np.arange(len(t.num)),
                      np.asarray(t.den) / a ** np.arange(len(t.den)))

    g1, g2 = float(elem.a_rho[0, 0]), float(elem.a_rho[1, 1])
    return (elements.gsore(a * elem.omega_r, elem.xi, g1, g2), s_over_a(c_l1),
            s_over_a(c_l2, a**2), s_over_a(g))


def gsore_op(ptype, blocks) -> dict:
    """Problem assembly, certificate search at the CLI optimizer defaults
    (seed 0 included), and the matrix oracle on a certificate."""
    elem, c_l1, c_l2, g = blocks
    problem = gsore.gsore_problem(elem, c_l1, c_l2, g, points=GSORE_POINTS)
    res = gsore.certify(problem, gsore.OptimizerSettings())
    out = {"type": res.problem_type, "certified": bool(res.certified),
           "m": _finite(res.m_value), "q": list(res.q), "oracle": res.oracle_cross_check}
    if res.problem_type != ptype:
        out["failure"] = f"problem type {res.problem_type}, expected {ptype}"
    elif res.certified:
        b1, b2, r1, r2, r3 = res.reconstructed
        cand = hbeta.HbetaCandidate(np.array([b1, b2]), np.array([[r1, r2], [r2, r3]]))
        s = problem.samples
        pos = s.omega > 0.0
        sub = frf.LoopSamples(s.omega[pos], s.loop[pos], s.shaping[pos], s.reset_base[pos])
        rep = hbeta.spr_check_matrix(cand, sub, problem.element, k_s0=problem.k_s0,
                                     k_n=problem.k_n, origin_pole=problem.origin_pole,
                                     n_minus_m=problem.n_minus_m)
        out["matrix_oracle"] = "pass" if rep.passed else "fail"
        if not rep.passed:
            out["failure"] = "GSORE certificate rejected by spr_check_matrix"
    return out


def setup_gsore_search(seed: int, workdir: str, runner=None) -> Plan:
    """Each fixture at GSORE_SCALES seeded frequency scales 10^U(-1, 1).
    The search normalizes by omega_r, so the work per fixture barely moves
    with the scale while the inputs do."""
    rng = np.random.default_rng([seed, 2])
    ops, scales = [], {}
    for j in range(GSORE_SCALES):
        for t, blocks in gsore_fixtures().items():
            op_id = f"gsore-{t}-{j}"
            scales[op_id] = float(10.0 ** rng.uniform(-1.0, 1.0))
            scaled = frequency_scaled(blocks, scales[op_id])
            ops.append(make_op(op_id, gsore_op, t, scaled))
    return Plan(ops, {"points": GSORE_POINTS, "frequency_scales": scales})


# ---------------------------------------------------------------------------
# sim_ubibs: bounded-input simulations of certified loops
# ---------------------------------------------------------------------------

def criterion10_loop(rng):
    """The acceptance suite's first-order loop generator (criterion 10)."""
    kind = rng.choice(["GFORE", "PCI"])
    wr = 10.0 ** rng.uniform(-0.5, 0.5)
    gamma = float(rng.uniform(-0.8, 0.8))
    elem = elements.gfore(wr, gamma) if kind == "GFORE" else elements.pci(wr, gamma)
    order = int(rng.integers(1, 4))
    den = [1.0]
    for p in 10.0 ** rng.uniform(-0.7, 0.7, order):
        den = np.convolve(den, [1.0, 1.0 / p])
    return elem, lti.tf([10.0 ** rng.uniform(-0.7, 0.4)], den)


def criterion10_fixtures(count: int):
    """The first ``count`` certified loops of the acceptance suite's
    criterion-10 population (generator seed 2024, 700-point grid)."""
    rng = np.random.default_rng(2024)
    loops = []
    while len(loops) < count:
        elem, g = criterion10_loop(rng)
        try:
            if nsv.certify_first_order(elem, ONE, ONE, g, points=700).certified:
                loops.append((elem, g))
        except errors.SparseGrid:
            continue
    return loops


def sim_systems():
    """(id, closed loop): criterion-10 fixture loops (reset-free GFORE ones
    and the PCI ones that settle into reset oscillations) and the GSORE
    fixture loop."""
    fixtures = criterion10_fixtures(max(SIM_FIXTURES) + 1)
    out = []
    for i in SIM_FIXTURES:
        elem, g = fixtures[i]
        out.append((f"{elem.kind}{i}", lti.assemble_closed_loop(
            elements.realization(elem), elem.a_rho, ONE, ONE, g, ONE)))
    elem, l1, l2, g = gsore_fixture_blocks()
    out.append(("GSORE", lti.assemble_closed_loop(elements.realization(elem), elem.a_rho,
                                                  l1, l2, g, ONE)))
    return out


def sim_op(cl, signal: dict) -> dict:
    """200 time constants at dt = min(tau/50, 0.5/|eig|max), as in criterion 10."""
    eig = np.linalg.eigvals(cl.a_bar)
    rates = np.abs(eig.real)
    tau = 1.0 / rates[rates > 1e-9].min()
    dt = min(tau / 50.0, 0.5 / np.max(np.abs(eig)))
    if signal["kind"] == "step":
        inp = sim.step_input(signal["amplitude"])
    else:
        inp = sim.sinusoid_input(signal["amplitude"], 1.0 / tau, signal["phase"])
    tr = sim.simulate(sim.SimConfig(cl, dt=dt, t_end=SIM_TAUS * tau, input=inp))
    out = {"states": int(cl.order), "steps": int(tr.times.size - 1),
           "resets": len(tr.reset_instants),
           "final_abs_er": float(abs(tr.reset_signal[-1])),
           "max_state_norm": float(tr.max_state_norm), "diverged": bool(tr.diverged)}
    if tr.diverged or not math.isfinite(tr.max_state_norm):
        out["failure"] = "simulation of a certified loop diverged"
    return out


def setup_sim_ubibs(seed: int, workdir: str, runner=None) -> Plan:
    """Fixed loops, seeded signals: each loop gets a step of seeded amplitude
    and a sinusoid at 1/tau of seeded amplitude and phase."""
    rng = np.random.default_rng([seed, 3])
    ops = []
    for sys_id, cl in sim_systems():
        step = {"kind": "step", "amplitude": float(rng.uniform(0.5, 2.0))}
        sine = {"kind": "sinusoid", "amplitude": float(rng.uniform(0.5, 2.0)),
                "phase": float(rng.uniform(0.0, 2.0 * np.pi))}
        for signal in (step, sine):
            op_id = f"sim-{sys_id}-{signal['kind']}"
            ops.append(make_op(op_id, sim_op, cl, signal))
    return Plan(ops, {"taus": SIM_TAUS, "fixtures": list(SIM_FIXTURES)})


# ---------------------------------------------------------------------------
# cli_commands: the command-line front end as subprocesses
# ---------------------------------------------------------------------------

CLI_ORDER = ("classify", "classify", "classify_nsv_out", "classify_frf", "hbeta",
             "gsore_check", "gsore_check", "simulate", "frf_convert")
CLI_VERDICTS = ("classify", "classify_nsv_out", "classify_frf", "hbeta", "gsore_check")
TRACED_CLI = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_cli.py")


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def cli_inputs(seed: int, workdir: str) -> dict:
    """Config and FRF files for the fixed command list; returns argv lists."""
    rng = np.random.default_rng([seed, 4])
    pole = float(10.0 ** rng.uniform(-0.3, 0.3))
    gain = float(10.0 ** rng.uniform(-0.3, 0.3))
    gfore_cfg = {"element": {"kind": "GFORE", "omega_r": 1.0, "gamma": 0.0},
                 "blocks": {"plant": {"num": [gain], "den": [1.0, 1.0 / pole]}},
                 "simulation": {"input": {"kind": "step", "amplitude": 1.0}}}
    wc, wd, wr, wp = 10.0, 36.0, 40.0, 200.0
    gsore_cfg = {
        "element": {"kind": "GSORE", "omega_r": wr, "xi": 1.0, "gamma1": 0.5, "gamma2": 0.5},
        "blocks": {"plant": {"num": [1.0], "den": list(np.convolve(
            [0.0, 0.0, 1.0], np.convolve([1.0, 1 / wp], [1.0, 1 / wp])))},
                   "c_l2": {"template": "cglp_pid", "params": {
                       "k_p": 6.0e3, "omega_c": wc, "omega_d": wd, "xi_d": 1.0}}},
        "optimizer": {"population": 80, "generations": 150, "restarts": 2},
    }
    w = lambda name: os.path.join(workdir, name)
    _write_json(w("gfore.json"), gfore_cfg)
    _write_json(w("gsore.json"), gsore_cfg)
    _write_json(w("element.json"), {"element": {"kind": "GFORE", "omega_r": 1.0, "gamma": 0.2}})
    band = np.logspace(-2, 2, 1200)
    table = frf.FrfTable(band, lti.evaluate(lti.tf([1.0], [1.0, 1.0 / pole]), band))
    frf.save_frf(table, w("plant.csv"))
    return {
        "classify": ["classify", "--config", w("gfore.json"), "--out", w("classify.json")],
        "classify_nsv_out": ["classify", "--config", w("gfore.json"), "--out",
                             w("classify_nsv.json"), "--nsv-out", w("nsv.csv")],
        "classify_frf": ["classify", "--config", w("element.json"), "--frf", w("plant.csv"),
                         "--asymptote", "0,-2", "--out", w("classify_frf.json")],
        "hbeta": ["hbeta", "--config", w("gfore.json"), "--out", w("hbeta.json")],
        "gsore_check": ["gsore-check", "--config", w("gsore.json"),
                        "--seed", str(seed % 2**31),    # scipy's DE takes 32-bit seeds
                        "--out", w("gsore_out.json")],
        "simulate": ["simulate", "--config", w("gfore.json"), "--out", w("trace.csv")],
        "frf_convert": ["frf-convert", "--frf", w("plant.csv"), "--to", "magphase",
                        "--out", w("plant_magphase.csv")],
    }


def child_env(src_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


@dataclass
class CliRunner:
    """Runs commands as subprocesses; with ``spans_dir`` set, through the
    tracing launcher, each dumping its spans to a file there."""

    src_dir: str
    spans_dir: str | None = None
    calls: int = 0
    last_digest: dict = field(default_factory=dict)

    def run(self, name: str, argv: list) -> dict:
        cmd = [sys.executable, "-m", "resetcert.cli", *argv]
        if self.spans_dir is not None:
            spans = os.path.join(self.spans_dir, f"spans-{self.calls:05d}.json")
            cmd = [sys.executable, TRACED_CLI, spans, *argv]
        self.calls += 1
        proc = subprocess.run(cmd, env=child_env(self.src_dir), capture_output=True,
                              text=True, timeout=170)
        out_path = argv[argv.index("--out") + 1]
        out = {"command": name, "exit": proc.returncode, "failure": None}
        if proc.returncode != 0:
            out["failure"] = f"exit {proc.returncode}, expected 0: {proc.stderr.strip()[-200:]}"
            return out
        out["digest"] = _digest(out_path)
        if name in ("classify", "gsore_check"):
            prev = self.last_digest.pop(name, None)
            if prev is None:
                self.last_digest[name] = out["digest"]
            elif prev != out["digest"]:
                out["failure"] = "two identical calls gave different JSON"
        if name in CLI_VERDICTS:
            with open(out_path, encoding="utf-8") as fh:
                data = json.load(fh)
            out["certified"] = bool(data.get("certified", data.get("passed")))
        return out


def setup_cli_commands(seed: int, workdir: str, runner: CliRunner) -> Plan:
    argvs = cli_inputs(seed, workdir)
    ops = []
    for i, name in enumerate(CLI_ORDER):
        op_id = f"cli{i}-{name}"
        ops.append(make_op(op_id, runner.run, name, argvs[name]))
    return Plan(ops, {"commands": list(CLI_ORDER)}, subprocess_ops=True)


def time_import(src_dir: str) -> float:
    """Wall time of a fresh interpreter that imports the package."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import resetcert"], env=child_env(src_dir),
                   check=True, timeout=120)
    return time.perf_counter() - t0


def import_profile(src_dir: str) -> tuple[float, float]:
    """(total, scipy) import seconds of ``resetcert.cli`` from ``-X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import resetcert.cli"],
                          env=child_env(src_dir), capture_output=True, text=True,
                          check=True, timeout=120)
    total = scipy = 0.0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|", 2)
        secs = int(self_us) * 1e-6
        total += secs
        if name.strip().startswith("scipy"):
            scipy += secs
    return total, scipy


SETUPS = {
    "fo_population": setup_fo_population,
    "gsore_search": setup_gsore_search,
    "sim_ubibs": setup_sim_ubibs,
    "cli_commands": setup_cli_commands,
}
