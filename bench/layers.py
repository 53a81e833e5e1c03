"""Which package functions the traced run wraps, and the per-layer metrics
computed from the spans they record."""

from __future__ import annotations

import math

import scipy.optimize

from resetcert import cli, frf, gsore, hbeta, lti, nsv, sim
from tracer import Target, self_times

MODULES = ("lti", "frf", "nsv", "hbeta", "gsore", "sim", "cli")
CLI_COMMANDS = ("classify", "classify_nsv_out", "classify_frf", "hbeta", "gsore_check",
                "simulate", "frf_convert")
RESET_HEAVY = 100          # resets in one run that make it "reset heavy"


def _note_grid(tracer, out, seconds, args, kwargs):
    tracer.note("nsv.grid_points", len(out[1]))


def _note_sim(tracer, out, seconds, args, kwargs):
    tracer.note("sim.runs", [int(out.times.size - 1), len(out.reset_instants), seconds])


def _note_certify(tracer, out, seconds, args, kwargs):
    m = out.m_value if math.isfinite(out.m_value) else -1.0
    tracer.note("gsore.m", [out.problem_type, m])


def _note_de(tracer, out, seconds, args, kwargs):
    tracer.note("gsore.de.generations", int(out.nit))


def targets(tracer) -> list[Target]:
    """Public functions traced in the traced run.  scipy's optimizers are
    traced where ``gsore`` imported them; the DE objective is traced by
    wrapping the callback the DE wrapper receives."""

    def objective_spans(de):
        def de_with_traced_objective(fun, *args, **kwargs):
            return de(tracer.wrap("gsore.objective", fun), *args, **kwargs)
        return de_with_traced_objective

    return [
        Target("lti.evaluate", lti, "evaluate"),
        Target("lti.base_linear_stability", lti, "base_linear_stability"),
        Target("lti.minimality_check", lti, "minimality_check"),
        Target("lti.assemble_closed_loop", lti, "assemble_closed_loop"),
        Target("frf.compose_loop", frf, "compose_loop"),
        Target("frf.interpolate", frf, "interpolate"),
        Target("frf.load_frf", frf, "load_frf"),
        Target("frf.save_frf", frf, "save_frf"),
        Target("nsv.compute_nsv", nsv, "compute_nsv"),
        Target("nsv.classify", nsv, "classify"),
        Target("nsv.nsv_grid_samples", nsv, "nsv_grid_samples", _note_grid),
        Target("nsv.asymptotic_angles", nsv, "asymptotic_angles"),
        Target("nsv.certify_first_order", nsv, "certify_first_order"),
        Target("hbeta.search_candidate_scalar", hbeta, "search_candidate_scalar"),
        Target("hbeta.spr_check_scalar", hbeta, "spr_check_scalar"),
        Target("hbeta.spr_check_matrix", hbeta, "spr_check_matrix"),
        Target("gsore.gsore_problem", gsore, "gsore_problem"),
        Target("gsore.certify", gsore, "certify", _note_certify),
        Target("gsore.rank_condition", gsore, "rank_condition"),
        Target("gsore.de", scipy.optimize, "differential_evolution", _note_de,
               adapt=objective_spans),
        Target("gsore.refine", scipy.optimize, "minimize_scalar"),
        Target("sim.simulate", sim, "simulate", _note_sim),
        Target("sim.save_csv", sim.SimTrace, "save_csv"),
        Target("cli.main", cli, "main"),
    ]


def layer_metrics(span_lists, notes: dict, n_ops: int) -> dict:
    """Per-operation self times and counts from one or more span lists
    (the benchmark process plus any traced CLI children)."""
    st = {}
    for spans in span_lists:
        for name, (secs, calls) in self_times(spans).items():
            s0, c0 = st.get(name, (0.0, 0))
            st[name] = (s0 + secs, c0 + calls)
    n = max(n_ops, 1)
    secs = lambda name: st.get(name, (0.0, 0))[0]
    calls = lambda name: st.get(name, (0.0, 0))[1]
    out = {}
    for name in ("nsv.compute_nsv", "nsv.classify", "nsv.nsv_grid_samples",
                 "nsv.asymptotic_angles", "nsv.certify_first_order", "frf.compose_loop",
                 "frf.interpolate", "lti.evaluate", "lti.base_linear_stability",
                 "lti.minimality_check", "lti.assemble_closed_loop",
                 "hbeta.search_candidate_scalar", "hbeta.spr_check_scalar",
                 "hbeta.spr_check_matrix", "gsore.certify", "gsore.de", "gsore.refine",
                 "gsore.rank_condition", "gsore.gsore_problem", "sim.simulate"):
        out[f"{name}.self_s"] = secs(name) / n
    for name in ("nsv.compute_nsv", "frf.compose_loop", "lti.evaluate",
                 "hbeta.spr_check_scalar", "gsore.objective"):
        out[f"{name}.calls"] = calls(name) / n
    for mod in MODULES:
        out[f"{mod}.self_s"] = sum(s for k, (s, _) in st.items() if k.startswith(mod + ".")) / n
    traced = sum(s for k, (s, _) in st.items() if k != "op")
    op_wall = sum(sp.end - sp.start for spans in span_lists for sp in spans if sp.name == "op")
    out["op.other_s"] = (op_wall - traced) / n
    out["nsv.grid_points"] = sum(notes.get("nsv.grid_points", [])) / n
    out["gsore.de.restarts"] = calls("gsore.de") / n
    out["gsore.de.generations"] = sum(notes.get("gsore.de.generations", [])) / n
    obj_calls = calls("gsore.objective")
    out["gsore.objective.ms_per_call"] = 1e3 * secs("gsore.objective") / obj_calls if obj_calls else 0.0
    for ptype, label in (("III", "type3"), ("IV", "type4"), ("V", "type5")):
        ms = [m for t, m in notes.get("gsore.m", []) if t == ptype]
        out[f"gsore.m_value.{label}"] = ms[-1] if ms else 0.0
    runs = notes.get("sim.runs", [])
    out["sim.steps"] = sum(r[0] for r in runs) / n
    out["sim.resets"] = sum(r[1] for r in runs) / n
    for label, pick in (("reset_free", lambda r: r[1] == 0),
                        ("reset_heavy", lambda r: r[1] >= RESET_HEAVY)):
        sel = [r for r in runs if pick(r)]
        steps = sum(r[0] for r in sel)
        out[f"sim.step_us.{label}"] = 1e6 * sum(r[2] for r in sel) / steps if steps else 0.0
    return out
