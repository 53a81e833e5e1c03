"""Command-line front end: classify, gsore-check, hbeta, simulate, frf-convert.

Configurations are JSON files; all angles are radians in JSON output and
degrees in plot-ready CSV output.  Exit codes: 0 certified/pass, 2 not
certified or inconclusive, 1 error (a usage error included).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict

import numpy as np

from . import elements
from .elements import ResetElement
from .errors import ConfigError, DomainError, ResetCertError
from .frf import GRID_POINTS, Condition, Loop, load_frf, no_failure, save_frf
from .hbeta import HbetaCandidate, search_candidate_scalar, spr_check_scalar
from .lti import RationalTF, tf
from .nsv import certify_first_order, nsv_grid_samples


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file beside it, which a
    failure removes; an OSError names ``path``, not the temp file."""
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".tmp-",
                                   text=True)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _emit_json(obj, out_path=None):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out_path:
        _atomic_write(out_path, text)
    else:
        sys.stdout.write(text)


def _emit_verdict(conditions, payload: dict, out_path) -> int:
    """Write ``{"certified", "conditions"}`` plus the command's ``payload``;
    the exit code is 0 when no condition failed, else 2."""
    certified = no_failure(conditions)
    _emit_json({"certified": certified, "conditions": [asdict(c) for c in conditions],
                **payload}, out_path)
    return 0 if certified else 2


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


def _number(value, field: str, kind=float):
    """``value`` as a ``kind``: a finite float, or int, which refuses a
    fraction; anything else (NaN and Infinity included, which Python's json
    reads) is a ConfigError naming the config ``field``."""
    try:
        number = kind(value)
        if kind is int and number != float(value):      # int() cuts a fraction off
            raise ValueError
        if not math.isfinite(number):
            raise ValueError
        return number
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"config field {field} needs {noun}, got {value!r}") from None


CGLP_PID = {"k_p": float, "omega_c": float, "omega_d": float, "xi_d": float}


def _block(value, field: str) -> RationalTF | None:
    """A linear block: a gain, num/den coefficient lists, or the cglp_pid
    template with its params; null stays None (unity, except for a plant)."""
    if value is None:
        return None
    if isinstance(value, (int, float)):
        return tf([_number(value, field)])
    if "template" in value:
        block = _read(value, {"template": ("cglp_pid",), "params": CGLP_PID}, field)
        params = block.get("params", {})
        try:
            return cglp_pid_blocks(*(params[k] for k in CGLP_PID))
        except KeyError as exc:
            raise ConfigError(f"cglp_pid template missing parameter {exc}") from None
        except (OverflowError, ZeroDivisionError, DomainError) as exc:
            raise ConfigError(f"config field {field}.params gives no finite "
                              f"cglp_pid block: {exc}") from None
    block = _read(value, {"num": [float], "den": [float]}, field)
    try:
        return tf(block["num"], block["den"])
    except (KeyError, DomainError) as exc:
        raise ConfigError(f"config field {field} needs finite numeric num/den lists, "
                          f"den nonzero: {exc}") from None


# every key of a config and its kind: a dict is a JSON object (null reads as
# {}), [kind] a list of that kind, a tuple one of its strings, int, float,
# bool and str a JSON value of that type, and a function reads a block;
# _load_config checks a whole config against it
CONFIG = {
    "element": {"kind": str, "omega_r": float, "xi": float, "gamma": float,
                "gamma1": float, "gamma2": float,
                "realization": ("controllable", "observable", "two_gfore")},
    "blocks": dict.fromkeys(("c_l1", "c_l2", "plant", "c_s"), _block),
    "architecture": ("standard", "modified"),
    "plant_rhp_poles": int,
    "plant_origin_poles": int,
    "gsore": {"origin_pole": bool, "k_n": float, "n_minus_m": int},
    "optimizer": dict.fromkeys(("population", "generations", "restarts"), int),
    "candidate": {"beta_prime": float, "rho_prime": float},
    "simulation": {"dt": float, "t_end": float, "lambda": float,
                   "input": {"kind": ("step", "sinusoid", "exppoly", "zero"),
                             "amplitude": float, "freq": float, "phase": float,
                             "terms": [[float]]},
                   "x0": [float], "gamma_sweep": [float]},
}


def _read(value, kind, field: str):
    """``value`` checked against ``kind`` (see CONFIG), with each block
    built; a mismatch is a ConfigError naming the config ``field``."""
    if isinstance(kind, dict):
        if value is None:
            return {}
        if not isinstance(value, dict):
            raise ConfigError(f"config field {field} needs a JSON object, got {value!r}")
        extra = sorted(set(value) - set(kind))
        if extra:
            raise ConfigError(f"config field {field or 'top level'} has unknown keys {extra}; "
                              f"use {', '.join(kind)}")
        return {key: _read(v, kind[key], f"{field}.{key}" if field else key)
                for key, v in value.items()}
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"config field {field} needs a list, got {value!r}")
        return [_read(v, kind[0], f"{field}[{i}]") for i, v in enumerate(value)]
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"config field {field} needs one of {', '.join(kind)}, "
                              f"got {value!r}")
        return value
    if kind in (int, float):
        return _number(value, field, kind)
    if kind in (bool, str):
        if not isinstance(value, kind):
            noun = "a boolean" if kind is bool else "a string"
            raise ConfigError(f"config field {field} needs {noun}, got {value!r}")
        return value
    return kind(value, field)


def _element_from_cfg(cfg) -> ResetElement:
    if "kind" not in cfg:
        raise ConfigError("config needs an element section with a kind")
    kind = cfg["kind"].upper()
    wr, xi, gamma = cfg.get("omega_r", 1.0), cfg.get("xi", 1.0), cfg.get("gamma", 0.0)
    form = cfg.get("realization", "controllable")
    if kind == "CI":
        return elements.clegg(gamma)
    if kind == "PCI":
        return elements.pci(wr, gamma)
    if kind == "GFORE":
        return elements.gfore(wr, gamma)
    if kind == "GSORE":
        return elements.gsore(wr, xi, cfg.get("gamma1", gamma), cfg.get("gamma2", gamma),
                              realization_form=form)
    if kind == "SOSRE":
        return elements.sosre(wr, xi, gamma, realization_form=form)
    raise ConfigError(f"unknown element kind {kind!r}")


def _load_config(args) -> dict:
    """The config file as checked against CONFIG, with its blocks built."""
    with open(args.config, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or a parser limit
            raise ConfigError(f"invalid JSON in {args.config}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {args.config} needs a JSON object at the top")
    return _read(cfg, CONFIG, "")


def _loop_from(args, cfg) -> Loop:
    """The element, blocks and architecture of a config; ``--frf``, where a
    command takes it, replaces blocks.plant with a measured table."""
    element = _element_from_cfg(cfg.get("element", {}))
    blocks = cfg.get("blocks", {})
    takes_frf = "frf" in args
    if takes_frf and args.frf:
        plant = load_frf(args.frf, args.frf_format)
    elif blocks.get("plant") is None:        # a null plant is a slip more often than P = 1
        null = "config field blocks.plant is null: " if "plant" in blocks else ""
        raise ConfigError(f"{null}config needs blocks.plant"
                          + (" or an --frf file" if takes_frf else ""))
    else:
        plant = blocks["plant"]
    one = tf([1.0])
    return Loop(element, blocks.get("c_l1") or one, blocks.get("c_l2") or one, plant,
                c_s=blocks.get("c_s"), architecture=cfg.get("architecture", "standard"))


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
    declared = {key: cfg[key] for key in ("plant_rhp_poles", "plant_origin_poles") if key in cfg}
    verdict = certify_first_order(
        loop.element, loop.c_l1, loop.c_l2, loop.plant, c_s=loop.c_s,
        architecture=loop.architecture,
        points=args.grid_points,
        asymptote=_parse_asymptote(args.asymptote),
        **declared,
    )
    tv = verdict.type_verdict
    code = _emit_verdict(verdict.conditions, {
        "theta1": tv.theta1, "theta2": tv.theta2,
        "theta1_omega": tv.theta1_omega, "theta2_omega": tv.theta2_omega,
        "grid_points": int(verdict.samples.omega.size), "k_s0": verdict.k_s0,
        "k_n": verdict.k_n}, args.out)
    if args.nsv_out:
        _write_nsv_csv(verdict.nsv, args.nsv_out)
    return code


def cmd_gsore(args) -> int:
    from .gsore import OptimizerSettings, certify, gsore_problem  # imports scipy.optimize

    cfg = _load_config(args)
    loop = _loop_from(args, cfg)
    problem = gsore_problem(loop.element, loop.c_l1, loop.c_l2, loop.plant, c_s=loop.c_s,
                            points=args.grid_points, **cfg.get("gsore", {}))
    settings = OptimizerSettings(**cfg.get("optimizer", {}), seed=args.seed)
    result = certify(problem, settings)
    return _emit_verdict(result.conditions, {
        "problem_type": result.problem_type,
        "q": list(result.q),
        "m_value": result.m_value,
        "reconstructed": dict(zip(("beta1", "beta2", "rho1", "rho2", "rho3"),
                                  result.reconstructed)),
        "seed": result.seed,
        "ratio_windows": {k: list(v) for k, v in result.ratio_windows.items() if v},
        "search": result.search,
    }, args.out)


def cmd_hbeta(args) -> int:
    cfg = _load_config(args)
    loop = _loop_from(args, cfg)
    element, c_s, p_lin, variant = loop.element, loop.c_s, loop.p_lin, loop.variant
    samples, _ = nsv_grid_samples(loop.plant, loop.c_l1, loop.c_l2, c_s, element,
                                  variant=variant, points=args.grid_points)
    cand_cfg = cfg.get("candidate")
    if cand_cfg:        # _number refuses a field left out
        cand = HbetaCandidate(*(_number(cand_cfg.get(key), f"candidate.{key}")
                                for key in CONFIG["candidate"]))
    else:
        cand = search_candidate_scalar(samples, element, c_s, p_lin, variant)
        if cand is None:
            return _emit_verdict([Condition("candidate-search", "fail",
                                            detail="N(w) spans pi or more, or the bisector "
                                                   "of its arc fails the check")],
                                 {"candidate": None}, args.out)
    rep = spr_check_scalar(cand, samples, element, c_s, p_lin, variant)
    return _emit_verdict(rep.conditions, {"candidate": {
        "beta_prime": cand.beta_prime, "rho_prime": cand.rho_prime}}, args.out)


def _input_from_cfg(inp: dict):
    from .sim import MAX_POWER, InputSignal, sinusoid_input, step_input

    terms = inp.get("terms", [])
    for i, term in enumerate(terms):
        if len(term) != 5:
            raise ConfigError(f"config field simulation.input.terms[{i}] needs 5 numbers "
                              f"(amp, power, sigma, omega, phase), got {term!r}")
        if not (0 <= term[1] <= MAX_POWER and term[1].is_integer()):
            raise ConfigError(f"config field simulation.input.terms[{i}][1] needs a "
                              f"nonnegative integer power up to {MAX_POWER}, got {term[1]!r}")
    amplitude = inp.get("amplitude", 1.0)
    constructors = {"step": lambda: step_input(amplitude),
                    "sinusoid": lambda: sinusoid_input(amplitude, inp.get("freq", 1.0),
                                                       inp.get("phase", 0.0)),
                    "exppoly": lambda: InputSignal(tuple(map(tuple, terms))),
                    "zero": InputSignal}
    return constructors[inp.get("kind", "step")]()


def cmd_simulate(args) -> int:
    from .sim import SimConfig, default_dt, simulate

    cfg = _load_config(args)
    loop = _loop_from(args, cfg)
    sim_cfg = cfg.get("simulation", {})
    inp = _input_from_cfg(sim_cfg.get("input", {}))
    x0 = np.array(sim_cfg["x0"]) if "x0" in sim_cfg else None

    # each swept element is the configured one with every reset factor at g
    sweep = sim_cfg.get("gamma_sweep", [])
    runs = [(f"_gamma{g:g}", _element_from_cfg({**cfg["element"], "gamma": g, "gamma1": g,
                                                 "gamma2": g}).a_rho) for g in sweep]
    runs = runs or [("", loop.element.a_rho)]

    summary = {}
    for suffix, a_rho in runs:
        cl = loop.closed_loop(a_rho)
        dt = sim_cfg["dt"] if "dt" in sim_cfg else default_dt(cl, input=inp)
        if not dt > 0:
            raise ConfigError(f"config field simulation.dt needs a positive number, got {dt!r}")
        t_end = sim_cfg.get("t_end", 2000 * dt)
        if not t_end > dt:
            raise ConfigError(f"config field simulation.t_end needs a number above "
                              f"dt = {dt!r}, got {t_end!r}")
        if x0 is not None and x0.size != cl.order:
            raise ConfigError(f"config field simulation.x0 needs {cl.order} entries, "
                              f"got {x0.size}")
        lam = sim_cfg.get("lambda")
        if lam is not None and not lam >= 0:
            raise ConfigError(f"config field simulation.lambda needs a nonnegative "
                              f"number, got {lam!r}")
        trace = simulate(SimConfig(cl, dt=dt, t_end=t_end, lam=lam, input=inp, x0=x0))
        base, ext = os.path.splitext(args.out)
        trace.save_csv(f"{base}{suffix}{ext}" if suffix else args.out)
        summary[suffix] = trace.counters()

    if args.summary:
        _emit_json(summary, args.summary)
    return 0


def cmd_frf_convert(args) -> int:
    save_frf(load_frf(args.frf, args.frf_format), args.out, args.to)
    return 0


FLAGS = {
    "--config": dict(help="JSON run configuration"),
    "--frf": dict(help="measured plant FRF file (CSV)"),
    "--frf-format": dict(choices=["complex", "magphase"], default="complex"),
    "--seed": dict(type=int, default=0),
    "--grid-points": dict(type=int, default=GRID_POINTS),
    "--asymptote": dict(help="declared low,high loop slopes for FRF plants"),
    "--out": dict(help="output path (JSON or CSV per command)"),
    "--nsv-out": dict(help="write (omega, angle) CSV in degrees"),
    "--summary": dict(help="write the event counters of each run as JSON"),
    "--to": dict(choices=["complex", "magphase"], default="complex"),
}
LOOP_FLAGS = ("--grid-points", "--out")
TABLE_FLAGS = ("--frf", "--frf-format")     # hbeta and simulate need a rational plant
COMMANDS = {        # each command: its function, the flags it needs, the others it reads
    "classify": (cmd_classify, ("--config",),
                 LOOP_FLAGS + TABLE_FLAGS + ("--asymptote", "--nsv-out")),
    "gsore-check": (cmd_gsore, ("--config",), LOOP_FLAGS + TABLE_FLAGS + ("--seed",)),
    "hbeta": (cmd_hbeta, ("--config",), LOOP_FLAGS),
    "simulate": (cmd_simulate, ("--config", "--out"), ("--summary",)),
    "frf-convert": (cmd_frf_convert, ("--frf", "--out"), ("--frf-format", "--to")),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="resetcert",
                                description="Stability certification for reset control loops")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (fn, required, optional) in COMMANDS.items():
        cmd = sub.add_parser(name)
        for flag in required + optional:
            cmd.add_argument(flag, required=flag in required, **FLAGS[flag])
        cmd.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:       # from argparse: 0 after --help, else a usage error
        return 1 if exc.code else 0
    try:
        return args.fn(args)
    except (ResetCertError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
