"""Command-line front end: classify, gsore-check, hbeta, simulate, frf-convert.

Configurations are JSON files; all angles are radians in JSON output and
degrees in plot-ready CSV output.  Exit codes: 0 certified/pass, 2 not
certified or inconclusive, 1 error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import elements
from .elements import ResetElement
from .errors import ConfigError, ResetCertError
from .frf import Loop, load_frf, save_frf
from .hbeta import HbetaCandidate, search_candidate_scalar, spr_check_scalar
from .lti import RationalTF, tf
from .nsv import certify_first_order, nsv_grid_samples


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_json(obj, out_path=None):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out_path:
        _atomic_write(out_path, text)
    else:
        sys.stdout.write(text)


def cglp_pid_blocks(k_p: float, omega_c: float, omega_d: float, xi_d: float) -> RationalTF:
    """Linear part of the constant-gain lead-phase compensator plus PID.

    Second-order lead over a double pole at 10*omega_c, a weak PI with corner
    omega_c/10, and a 3x lead around the crossover; the resetting stage is
    supplied separately as the element.
    """
    lead2 = tf([omega_d**2, 2.0 * xi_d * omega_d, 1.0],
               [100.0 * omega_c**2, 20.0 * omega_c, 1.0])
    pi = tf([omega_c, 10.0], [0.0, 10.0])
    lead1 = tf([1.0, 3.0 / omega_c], [1.0, 1.0 / (3.0 * omega_c)])
    return k_p * lead2 * pi * lead1


def _block_from_cfg(cfg) -> RationalTF:
    if cfg is None:
        return tf([1.0])
    if isinstance(cfg, (int, float)):
        return tf([float(cfg)])
    if isinstance(cfg, dict) and "template" in cfg:
        name = cfg["template"]
        params = _section(cfg, "params", "template params")
        if name == "cglp_pid":
            try:
                return cglp_pid_blocks(*(_number(params[k], f"params.{k}") for k in
                                         ("k_p", "omega_c", "omega_d", "xi_d")))
            except KeyError as exc:
                raise ConfigError(f"cglp_pid template missing parameter {exc}") from None
        raise ConfigError(f"unknown block template {name!r}")
    try:
        return tf(cfg["num"], cfg["den"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"block needs numeric num/den lists, den nonzero: {exc}") from None


def _number(value, field: str, kind=float):
    """``value`` as a ``kind``; anything else is a ConfigError naming the
    config ``field`` (a dotted path such as ``optimizer.population``)."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"config field {field} needs a number, got {value!r}") from None


def _list(value, field: str) -> list:
    """``value`` if it is a JSON list; anything else is a ConfigError naming
    the config ``field``."""
    if not isinstance(value, list):
        raise ConfigError(f"config field {field} needs a list, got {value!r}")
    return value


def _numbers(value, field: str) -> list:
    return [_number(v, f"{field}[{i}]") for i, v in enumerate(_list(value, field))]


def _section(cfg: dict, key: str, field: str | None = None) -> dict:
    """``cfg[key]`` as a JSON object, ``{}`` when absent or null; anything
    else is a ConfigError naming the config ``field`` (default ``key``)."""
    value = cfg.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"config field {field or key} needs a JSON object, got {value!r}")
    return value


def _element_from_cfg(cfg) -> ResetElement:
    if "kind" not in cfg:
        raise ConfigError("config needs an element section with a kind")
    kind = str(cfg["kind"]).upper()
    wr = _number(cfg.get("omega_r", 1.0), "element.omega_r")
    xi = _number(cfg.get("xi", 1.0), "element.xi")
    gamma = _number(cfg.get("gamma", 0.0), "element.gamma")
    form = cfg.get("realization", "controllable")
    if kind == "CI":
        return elements.clegg(gamma)
    if kind == "PCI":
        return elements.pci(wr, gamma)
    if kind == "GFORE":
        return elements.gfore(wr, gamma)
    if kind == "GSORE":
        return elements.gsore(wr, xi, _number(cfg.get("gamma1", gamma), "element.gamma1"),
                              _number(cfg.get("gamma2", gamma), "element.gamma2"),
                              realization_form=form)
    if kind == "SOSRE":
        return elements.sosre(wr, xi, gamma, realization_form=form)
    raise ConfigError(f"unknown element kind {kind!r}")


def _load_config(args):
    if not args.config:
        raise ConfigError("--config is required")
    if not os.path.exists(args.config):
        raise ConfigError(f"config file not found: {args.config}")
    with open(args.config, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {args.config}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {args.config} needs a JSON object at the top")
    return cfg


def _loop_from(args, cfg) -> Loop:
    """The element, blocks and architecture of a config; ``--frf`` replaces
    blocks.plant with a measured table."""
    element = _element_from_cfg(_section(cfg, "element"))
    blocks = _section(cfg, "blocks")
    if args.frf:
        if not os.path.exists(args.frf):
            raise ConfigError(f"FRF file not found: {args.frf}")
        plant = load_frf(args.frf, args.frf_format)
    elif "plant" not in blocks:
        raise ConfigError("config needs blocks.plant or an --frf file")
    else:
        plant = _block_from_cfg(blocks["plant"])
    return Loop(element, _block_from_cfg(blocks.get("c_l1")),
                _block_from_cfg(blocks.get("c_l2")), plant,
                c_s=_block_from_cfg(blocks.get("c_s")),
                architecture=cfg.get("architecture", "standard"))


def _parse_asymptote(text):
    if text is None:
        return None
    try:
        lo, hi = (int(p) for p in text.split(","))
        return lo, hi
    except ValueError:
        raise ConfigError("--asymptote expects two integers, e.g. -1,-3") from None


def _write_nsv_csv(nsv, path):
    rows = ["omega_rad_s,theta_deg"]
    rows += [f"{w:.17g},{t:.17g}" for w, t in zip(nsv.omega, np.degrees(nsv.theta))]
    _atomic_write(path, "\n".join(rows) + "\n")


def cmd_classify(args) -> int:
    cfg = _load_config(args)
    loop = _loop_from(args, cfg)
    verdict = certify_first_order(
        loop.element, loop.c_l1, loop.c_l2, loop.plant, c_s=loop.c_s,
        architecture=loop.architecture,
        points=args.grid_points,
        plant_rhp_poles=_number(cfg.get("plant_rhp_poles", 0), "plant_rhp_poles", int),
        plant_origin_poles=_number(cfg.get("plant_origin_poles", 0), "plant_origin_poles",
                                   int),
        asymptote=_parse_asymptote(args.asymptote),
    )
    tv = verdict.type_verdict
    out = {
        "certified": verdict.certified,
        "conditional_on_well_posedness": verdict.conditional_on_well_posedness,
        "is_type1": tv.is_type1,
        "is_type2": tv.is_type2,
        "theta1": tv.theta1,
        "theta2": tv.theta2,
        "theta1_omega": tv.theta1_omega,
        "theta2_omega": tv.theta2_omega,
        "grid_points": int(verdict.samples.omega.size),
        "k_s0": verdict.k_s0,
        "k_n": verdict.k_n,
        "bullets": [{"name": n, "status": s, "detail": d} for n, s, d in verdict.bullets],
        "diagnostics": [{"condition": c, "outcome": o} for c, o in tv.diagnostics],
    }
    _emit_json(out, args.out)
    if args.nsv_out:
        _write_nsv_csv(verdict.nsv, args.nsv_out)
    return 0 if verdict.certified else 2


def cmd_gsore(args) -> int:
    from .gsore import OptimizerSettings, certify, gsore_problem  # imports scipy.optimize

    cfg = _load_config(args)
    loop = _loop_from(args, cfg)
    if loop.element.kind != "GSORE":
        raise ConfigError("gsore-check needs a GSORE element")
    extra = _section(cfg, "gsore")
    unknown = sorted(set(extra) - {"origin_pole", "k_n", "n_minus_m"})
    if unknown:
        raise ConfigError(f"unknown gsore keys {unknown}; use origin_pole, k_n, n_minus_m")
    problem = gsore_problem(
        loop.element, loop.c_l1, loop.c_l2, loop.plant, c_s=loop.c_s,
        points=args.grid_points,
        origin_pole=extra.get("origin_pole"),
        k_n=extra.get("k_n"),
        n_minus_m=extra.get("n_minus_m"),
    )
    opt = _section(cfg, "optimizer")
    settings = OptimizerSettings(
        population=_number(opt.get("population", 200), "optimizer.population", int),
        generations=_number(opt.get("generations", 500), "optimizer.generations", int),
        restarts=_number(opt.get("restarts", 8), "optimizer.restarts", int),
        seed=args.seed,
    )
    result = certify(problem, settings)
    out = {
        "certified": result.certified,
        "problem_type": result.problem_type,
        "q": list(result.q),
        "m_value": result.m_value,
        "reconstructed": {k: v for k, v in zip(
            ("beta1", "beta2", "rho1", "rho2", "rho3"), result.reconstructed)},
        "constraint_report": result.constraint_report,
        "oracle_cross_check": result.oracle_cross_check,
        "rank_check": result.rank_check,
        "seed": result.seed,
        "ratio_windows": {k: list(v) for k, v in result.ratio_windows.items() if v},
        "search": result.search,
    }
    _emit_json(out, args.out)
    return 0 if result.certified else 2


def cmd_hbeta(args) -> int:
    cfg = _load_config(args)
    loop = _loop_from(args, cfg)
    if not loop.rational:
        raise ConfigError("hbeta needs rational blocks for the limit checks")
    element, c_s, p_lin, variant = loop.element, loop.c_s, loop.p_lin, loop.variant
    samples, _ = nsv_grid_samples(loop.plant, loop.c_l1, loop.c_l2, c_s, element,
                                  variant=variant, points=args.grid_points)
    cand_cfg = _section(cfg, "candidate")
    if cand_cfg:
        cand = HbetaCandidate(_number(cand_cfg.get("beta_prime"), "candidate.beta_prime"),
                              _number(cand_cfg.get("rho_prime"), "candidate.rho_prime"))
    else:
        cand = search_candidate_scalar(samples, element, c_s, p_lin, variant)
        if cand is None:
            _emit_json({"passed": False, "candidate": None,
                        "note": "no direction passes the sweep"}, args.out)
            return 2
    rep = spr_check_scalar(cand, samples, element, c_s, p_lin, variant)
    out = {
        "passed": rep.passed,
        "candidate": {"beta_prime": float(np.asarray(cand.beta_prime).reshape(())),
                      "rho_prime": float(np.asarray(cand.rho_prime).reshape(()))},
        "rho_positive": rep.rho_positive,
        "min_margin": rep.min_margin,
        "worst_omega": rep.worst_omega,
        "limit_zero": None if rep.limit_zero is None else
            {"kind": rep.limit_zero.kind, "value": rep.limit_zero.value,
             "passed": rep.limit_zero.passed},
        "limit_inf": None if rep.limit_inf is None else
            {"kind": rep.limit_inf.kind, "value": rep.limit_inf.value,
             "passed": rep.limit_inf.passed},
    }
    _emit_json(out, args.out)
    return 0 if rep.passed else 2


def _input_from_cfg(inp_cfg: dict):
    from .sim import INPUT_KINDS, InputSignal

    kind = inp_cfg.get("kind", "step")
    if kind not in INPUT_KINDS:
        raise ConfigError(f"config field simulation.input.kind needs one of "
                          f"{', '.join(INPUT_KINDS)}, got {kind!r}")
    terms = []
    for i, t in enumerate(_list(inp_cfg.get("terms", []), "simulation.input.terms")):
        term = _numbers(t, f"simulation.input.terms[{i}]")
        if len(term) != 5:
            raise ConfigError(f"config field simulation.input.terms[{i}] needs 5 numbers "
                              f"(amp, power, sigma, omega, phase), got {t!r}")
        if not (term[1] >= 0 and term[1].is_integer()):
            raise ConfigError(f"config field simulation.input.terms[{i}][1] needs a "
                              f"nonnegative integer power, got {t[1]!r}")
        terms.append(tuple(term))
    return InputSignal(kind,
                       amplitude=_number(inp_cfg.get("amplitude", 1.0),
                                         "simulation.input.amplitude"),
                       freq=_number(inp_cfg.get("freq", 1.0), "simulation.input.freq"),
                       phase=_number(inp_cfg.get("phase", 0.0), "simulation.input.phase"),
                       terms=tuple(terms))


def cmd_simulate(args) -> int:
    from .sim import SimConfig, default_dt, simulate

    cfg = _load_config(args)
    loop = _loop_from(args, cfg)
    if not loop.rational:
        raise ConfigError("simulation needs a rational plant model")
    element = loop.element
    sim_cfg = _section(cfg, "simulation")
    inp = _input_from_cfg(_section(sim_cfg, "input", "simulation.input"))

    x0 = sim_cfg.get("x0")
    if x0 is not None:
        x0 = np.array(_numbers(x0, "simulation.x0"))

    gammas = sim_cfg.get("gamma_sweep")
    runs = []
    if gammas:
        for g in _numbers(gammas, "simulation.gamma_sweep"):
            if element.n_r == 1:
                a_rho = [[g]]
            elif element.kind == "SOSRE":
                a_rho = [[g, 0.0], [0.0, 1.0]]
            else:
                a_rho = [[g, 0.0], [0.0, g]]
            runs.append((f"_gamma{g:g}", a_rho))
    else:
        runs.append(("", element.a_rho))

    if not args.out:
        raise ConfigError("simulate needs --out for the trace CSV")
    summary = {}
    for suffix, a_rho in runs:
        cl = loop.closed_loop(a_rho)
        dt = _number(sim_cfg.get("dt", default_dt(cl, input=inp)), "simulation.dt")
        if not dt > 0:
            raise ConfigError(f"config field simulation.dt needs a positive number, got {dt!r}")
        t_end = _number(sim_cfg.get("t_end", 2000 * dt), "simulation.t_end")
        if not t_end > dt:
            raise ConfigError(f"config field simulation.t_end needs a number above "
                              f"dt = {dt!r}, got {t_end!r}")
        if x0 is not None and x0.size != cl.order:
            raise ConfigError(f"config field simulation.x0 needs {cl.order} entries, "
                              f"got {x0.size}")
        lam = sim_cfg.get("lambda")
        if lam is not None:
            lam = _number(lam, "simulation.lambda")
            if not lam >= 0:
                raise ConfigError(f"config field simulation.lambda needs a nonnegative "
                                  f"number, got {lam!r}")
        trace = simulate(SimConfig(cl, dt=dt, t_end=t_end, lam=lam, input=inp, x0=x0))
        base, ext = os.path.splitext(args.out)
        trace.save_csv(f"{base}{suffix}{ext}" if suffix else args.out)
        summary[suffix] = trace.counters()

    if args.summary:
        _emit_json(summary, args.summary)
    if args.nsv_out:
        _, nsv = nsv_grid_samples(loop.plant, loop.c_l1, loop.c_l2, loop.c_s, element,
                                  variant=loop.variant, points=args.grid_points)
        _write_nsv_csv(nsv, args.nsv_out)
    return 0


def cmd_frf_convert(args) -> int:
    if not args.frf:
        raise ConfigError("frf-convert needs --frf")
    table = load_frf(args.frf, args.frf_format)
    if not args.out:
        raise ConfigError("frf-convert needs --out")
    save_frf(table, args.out, args.to)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="resetcert",
                                description="Stability certification for reset control loops")
    sub = p.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration")
    common.add_argument("--frf", help="measured plant FRF file (CSV)")
    common.add_argument("--frf-format", choices=["complex", "magphase"], default="complex")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--grid-points", type=int, default=2000)
    common.add_argument("--asymptote", help="declared low,high loop slopes for FRF plants")
    common.add_argument("--out", help="output path (JSON or CSV per command)")
    common.add_argument("--nsv-out", help="write (omega, angle) CSV in degrees")

    sub.add_parser("classify", parents=[common]).set_defaults(fn=cmd_classify)
    sub.add_parser("gsore-check", parents=[common]).set_defaults(fn=cmd_gsore)
    sub.add_parser("hbeta", parents=[common]).set_defaults(fn=cmd_hbeta)
    simulate = sub.add_parser("simulate", parents=[common])
    simulate.add_argument("--summary", help="write the event counters of each run as JSON")
    simulate.set_defaults(fn=cmd_simulate)
    conv = sub.add_parser("frf-convert", parents=[common])
    conv.add_argument("--to", choices=["complex", "magphase"], default="complex")
    conv.set_defaults(fn=cmd_frf_convert)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ResetCertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
