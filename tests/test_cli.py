import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from resetcert.cli import CONFIG, main
from resetcert.frf import load_frf


def run(args):
    return main(args)


def statuses(data):
    return {c["id"]: c["status"] for c in data["conditions"]}


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


GFORE_DEMO = {
    "element": {"kind": "GFORE", "omega_r": 1.0, "gamma": 0.0},
    "blocks": {"plant": {"num": [1.0], "den": [1.0, 1.0]}},
}

CI_ORIGIN = {
    "element": {"kind": "CI", "gamma": 0.0},
    "blocks": {"plant": {"num": [1.0], "den": [0.0, 1.0, 1.0]}},
}


class TestClassify:
    def test_certified_demo(self, tmp_path):
        cfg = write_config(tmp_path, GFORE_DEMO)
        out = tmp_path / "verdict.json"
        code = run(["classify", "--config", cfg, "--out", str(out),
                    "--grid-points", "600"])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["certified"] is True
        (membership,) = [c for c in data["conditions"] if c["id"] == "type-membership"]
        assert membership["status"] == "pass" and membership["detail"].startswith("type1=True")

    def test_nsv_out_is_the_refined_grid(self, tmp_path):
        from resetcert.elements import gfore
        from resetcert.lti import tf
        from resetcert.nsv import nsv_grid_samples
        cfg = write_config(tmp_path, GFORE_DEMO)
        nsv_csv = tmp_path / "nsv.csv"
        assert run(["classify", "--config", cfg, "--out", str(tmp_path / "v.json"),
                    "--nsv-out", str(nsv_csv), "--grid-points", "600"]) == 0
        one = tf([1.0])
        _, nsv = nsv_grid_samples(tf([1.0], [1.0, 1.0]), one, one, one, gfore(1.0, 0.0),
                                  points=600)
        rows = ["omega_rad_s,theta_deg"]
        rows += [f"{w:.17g},{np.degrees(t):.17g}" for w, t in zip(nsv.omega, nsv.theta)]
        assert nsv_csv.read_text() == "\n".join(rows) + "\n"
        assert len(rows) - 1 > 600

    def test_nsv_out_monotone(self, tmp_path):
        # a verdict that is not certified still writes the NSV
        cfg = write_config(tmp_path, {
            "element": {"kind": "SOSRE", "omega_r": 2.0, "xi": 1.0, "gamma": 0.5},
            "blocks": {"plant": {"num": [1.0], "den": [0.0, 1.0, 1.0]}},
        })
        nsv = tmp_path / "nsv.csv"
        assert run(["classify", "--config", cfg, "--out", str(tmp_path / "v.json"),
                    "--nsv-out", str(nsv), "--grid-points", "400"]) == 2
        data = np.genfromtxt(nsv, delimiter=",", names=True)
        assert np.all(np.diff(data["omega_rad_s"]) > 0)

    def test_ci_origin_pole_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, CI_ORIGIN)
        out = tmp_path / "verdict.json"
        code = run(["classify", "--config", cfg, "--out", str(out),
                    "--grid-points", "600"])
        assert code == 2
        data = json.loads(out.read_text())
        assert statuses(data)["ci-origin-pole-rule"] == "fail"

    def test_missing_frf_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, GFORE_DEMO)
        assert run(["classify", "--config", cfg, "--frf", str(tmp_path / "nope.csv")]) == 1

    def test_missing_config_exit_1(self, tmp_path):
        assert run(["classify", "--config", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("cfg, on_grid", [(GFORE_DEMO, False), (CI_ORIGIN, True)],
                             ids=["asymptotic-extremes", "grid-extremes"])
    def test_extremes_and_grid_size(self, tmp_path, cfg, on_grid):
        # GFORE_DEMO's angle extremes are its w -> 0 and w -> inf limits (null
        # omega); CI_ORIGIN's are attained on the grid, at the omega reported
        path = write_config(tmp_path, cfg)
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        nsv_csv = tmp_path / "nsv.csv"
        for out in outs:
            run(["classify", "--config", path, "--out", str(out), "--nsv-out", str(nsv_csv),
                 "--grid-points", "600"])
        assert outs[0].read_bytes() == outs[1].read_bytes()
        data = json.loads(outs[0].read_text())
        rows = np.genfromtxt(nsv_csv, delimiter=",", names=True)
        assert data["grid_points"] == rows.size > 600
        for key in ("theta1", "theta2"):
            omega = data[f"{key}_omega"]
            if not on_grid:
                assert omega is None
                continue
            (i,) = np.flatnonzero(rows["omega_rad_s"] == omega)
            assert rows["theta_deg"][i] == np.degrees(data[key])

    def test_reproducible_json(self, tmp_path):
        cfg = write_config(tmp_path, GFORE_DEMO)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["classify", "--config", cfg, "--out", str(a), "--grid-points", "500"])
        run(["classify", "--config", cfg, "--out", str(b), "--grid-points", "500"])
        assert a.read_bytes() == b.read_bytes()


def gsore_config():
    wc, wd, wr, wp = 10.0, 36.0, 40.0, 200.0
    den = np.convolve([0.0, 0.0, 1.0], np.convolve([1.0, 1 / wp], [1.0, 1 / wp]))
    return {
        "element": {"kind": "GSORE", "omega_r": wr, "xi": 1.0,
                    "gamma1": 0.5, "gamma2": 0.5},
        "blocks": {
            "plant": {"num": [1.0], "den": list(den)},
            "c_l2": {"template": "cglp_pid",
                     "params": {"k_p": 6.0e3, "omega_c": wc, "omega_d": wd, "xi_d": 1.0}},
        },
        "optimizer": {"population": 80, "generations": 150, "restarts": 2},
    }


class TestGsoreCheck:
    def test_certified_and_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, gsore_config())
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        code = run(["gsore-check", "--config", cfg, "--seed", "42",
                    "--grid-points", "400", "--out", str(a)])
        assert code == 0
        run(["gsore-check", "--config", cfg, "--seed", "42",
             "--grid-points", "400", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        data = json.loads(a.read_text())
        assert data["certified"] is True
        assert statuses(data)["oracle-cross-check"] == "pass"
        assert data["problem_type"] == "III"
        assert len(data["q"]) == 4

    def test_same_verdict_across_seeds(self, tmp_path):
        cfg = write_config(tmp_path, gsore_config())
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        ca = run(["gsore-check", "--config", cfg, "--seed", "42",
                  "--grid-points", "400", "--out", str(a)])
        cb = run(["gsore-check", "--config", cfg, "--seed", "43",
                  "--grid-points", "400", "--out", str(b)])
        assert ca == cb == 0

    def test_gamma_out_of_range_exit_1(self, tmp_path):
        bad = gsore_config()
        bad["element"]["gamma1"] = 1.2
        cfg = write_config(tmp_path, bad)
        assert run(["gsore-check", "--config", cfg, "--grid-points", "400"]) == 1

    @pytest.mark.parametrize("element", [{"kind": "GFORE", "omega_r": 1.0},
                                         {"kind": "SOSRE", "omega_r": 1.0, "xi": 0.7}],
                             ids=["GFORE", "SOSRE"])
    def test_non_gsore_element_exit_1(self, tmp_path, capsys, element):
        cfg = write_config(tmp_path, {**GFORE_DEMO, "element": element})
        assert run(["gsore-check", "--config", cfg, "--grid-points", "400"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: a GSORE problem needs a GSORE element, got {element['kind']}\n"

    def test_search_trace_in_json(self, tmp_path):
        cfg = write_config(tmp_path, gsore_config())
        out = tmp_path / "out.json"
        assert run(["gsore-check", "--config", cfg, "--seed", "42",
                    "--grid-points", "400", "--out", str(out)]) == 0
        search = json.loads(out.read_text())["search"]
        assert len(search) >= 1 and search[0]["seed"] == 42
        for entry in search:
            assert set(entry) == {"seed", "generations", "best", "stop", "points"}
            assert 1 <= entry["generations"] <= 150
            assert entry["stop"] in ("stalled", "converged", "maxiter")

    @pytest.mark.parametrize("optimizer, seed", [
        ({"restarts": 0}, "0"), ({"generations": 0}, "0"), ({}, "-1"),
        ({"restarts": 2}, str(2**32 - 1009)), ({"population": 19}, "0"),
    ], ids=["restarts-0", "generations-0", "seed-negative", "seed-too-large",
            "population-19"])
    def test_invalid_optimizer_settings_exit_1(self, tmp_path, capsys, optimizer, seed):
        cfg = gsore_config()
        cfg["optimizer"].update(optimizer)
        path = write_config(tmp_path, cfg)
        assert run(["gsore-check", "--config", path, "--seed", seed,
                    "--grid-points", "400"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


    def test_first_order_shaping_filter_rank_check(self, tmp_path):
        # a first-order C_s leaves a column LAPACK's balancing permutes; the
        # rank test used to end this run in a LinAlgError traceback
        cfg = write_config(tmp_path, {
            "element": {"kind": "GSORE", "omega_r": 2.0, "xi": 1.0,
                        "gamma1": 0.4, "gamma2": 0.4},
            "blocks": {"plant": {"num": [0.8], "den": [1.0, 1.0]},
                       "c_s": {"num": [1.0, 1.0], "den": [1.0, 0.1]}},
            "optimizer": {"population": 60, "generations": 100, "restarts": 1}})
        out = tmp_path / "cert.json"
        assert run(["gsore-check", "--config", cfg, "--grid-points", "400",
                    "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["certified"] and statuses(data)["rank-conditions"] == "pass"


class TestHbeta:
    def test_search_and_check(self, tmp_path):
        cfg = write_config(tmp_path, GFORE_DEMO)
        out = tmp_path / "h.json"
        code = run(["hbeta", "--config", cfg, "--out", str(out),
                    "--grid-points", "500"])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["certified"] is True
        assert statuses(data)["zero-frequency-limit"] == "pass"
        assert statuses(data)["high-frequency-limit"] == "pass"

    def test_explicit_candidate(self, tmp_path):
        cfg_d = dict(GFORE_DEMO)
        cfg_d["candidate"] = {"beta_prime": -1.0, "rho_prime": 0.001}
        cfg = write_config(tmp_path, cfg_d)
        assert run(["hbeta", "--config", cfg, "--grid-points", "500"]) == 2


class TestSimulate:
    def test_ci_sinusoid_peak(self, tmp_path):
        cfg = write_config(tmp_path, {
            "element": {"kind": "CI", "gamma": 0.0},
            "blocks": {"plant": {"num": [0.0], "den": [1.0]}},
            "simulation": {"dt": 1e-3, "t_end": 6 * np.pi,
                           "input": {"kind": "sinusoid", "amplitude": 1.0, "freq": 1.0}},
        })
        out = tmp_path / "trace.csv"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert abs(np.max(np.abs(data["x_1"])) - 2.0) <= 1e-6

    def test_gamma_sweep_files(self, tmp_path):
        cfg = write_config(tmp_path, {
            "element": {"kind": "GFORE", "omega_r": 1.0},
            "blocks": {"plant": {"num": [9.0], "den": [1.0, 1.0]}},
            "simulation": {"dt": 0.01, "t_end": 20.0,
                           "input": {"kind": "step", "amplitude": 1.0},
                           "gamma_sweep": [-0.5, 0.0, 0.5]},
        })
        out = tmp_path / "trace.csv"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        for g in ("-0.5", "0", "0.5"):
            assert (tmp_path / f"trace_gamma{g}.csv").exists()

    @pytest.mark.parametrize("kind", ["SOSRE", "GSORE"])
    def test_gamma_sweep_resets_the_kind_s_states(self, tmp_path, monkeypatch, kind):
        # a swept SOSRE run scales its first reset state by g and keeps the
        # second; a swept GSORE run scales both
        import resetcert.sim as sim

        traces, simulate = [], sim.simulate

        def recorded(config):
            traces.append(simulate(config))
            return traces[-1]

        monkeypatch.setattr(sim, "simulate", recorded)
        sweep = [-0.5, 0.5]
        cfg = write_config(tmp_path, {
            "element": {"kind": kind, "omega_r": 1.0, "xi": 0.7},
            "blocks": {"plant": {"num": [1.0], "den": [1.0, 1.0]}},
            "simulation": {"dt": 0.01, "t_end": 30.0, "gamma_sweep": sweep,
                           "input": {"kind": "sinusoid", "amplitude": 1.0, "freq": 1.0}}})
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 0
        assert len(traces) == len(sweep)
        for g, trace in zip(sweep, traces):
            assert trace.reset_states
            factors = np.array([g, 1.0] if kind == "SOSRE" else [g, g])
            for pre, post in trace.reset_states:
                assert np.allclose(post[:2], factors * pre[:2], rtol=1e-12, atol=1e-12)
                assert np.array_equal(post[2:], pre[2:])

    def test_default_dt_only_without_dt(self, tmp_path, monkeypatch):
        import resetcert.sim as sim

        def refuse(cl, input=None):
            raise AssertionError("default_dt called although simulation.dt is set")

        sim_cfg = {"t_end": 2.0, "input": {"kind": "step", "amplitude": 1.0},
                   "gamma_sweep": [-0.5, 0.0, 0.5]}
        base = {"element": {"kind": "GFORE", "omega_r": 1.0},
                "blocks": {"plant": {"num": [9.0], "den": [1.0, 1.0]}}}
        out = str(tmp_path / "trace.csv")
        default_dt = sim.default_dt
        monkeypatch.setattr(sim, "default_dt", refuse)
        cfg = write_config(tmp_path, {**base, "simulation": {**sim_cfg, "dt": 0.01}})
        assert run(["simulate", "--config", cfg, "--out", out]) == 0

        calls = []

        def counted(cl, input=None):
            calls.append(cl)
            return default_dt(cl, input=input)

        monkeypatch.setattr(sim, "default_dt", counted)
        cfg = write_config(tmp_path, {**base, "simulation": sim_cfg})
        assert run(["simulate", "--config", cfg, "--out", out]) == 0
        assert len(calls) == 3

    @pytest.mark.parametrize("simulation, message", [
        ({"t_end": 1e300}, "t_end = 1e+300 over dt = 0.01"),
        ({"t_end": 1e308}, "t_end = 1e+308 over dt = 0.01"),
        # too many Taylor cells per step: before the cap the 1e6 rad/s run
        # took about 29 s and the 1e300 one did not end
        ({"t_end": 2.0, "input": {"kind": "sinusoid", "amplitude": 1.0, "freq": 1e6}},
         "dt = 0.01 with |F|_1 = 1e+06"),
        ({"t_end": 2.0, "input": {"kind": "sinusoid", "amplitude": 1.0, "freq": 1e300}},
         "dt = 0.01 with |F|_1 = 1e+300")],
        ids=["1e+300", "1e+308", "cells-1e6", "cells-1e300"])
    def test_run_too_long_exit_1(self, tmp_path, capsys, simulation, message):
        cfg = write_config(tmp_path, {**lead_shaped(), "simulation": {"dt": 0.01,
                                                                      **simulation}})
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_default_dt_refused_as_a_plain_float(self, tmp_path, capsys):
        # default_dt gives a numpy float, once printed as np.float64(1e-154)
        cfg = write_config(tmp_path, {**lead_shaped(plant={"num": [1e308], "den": [1.0, 1.0]}),
                                      "simulation": {"t_end": 2.0}})
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: t_end = 2.0 over dt = 1e-154 gives 2e+154 steps")

    def test_flow_past_float_range_exit_1(self, tmp_path, capsys):
        # e_r' = g F z overflows: the scan read NaN and reported no crossing,
        # exit 0, while e_r changed sign in the last two trace rows
        cfg = write_config(tmp_path, {**GFORE_DEMO,
                                      "blocks": {"plant": {"num": [1e308], "den": [1.0, 1.0]}}})
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "not finite" in err[0]

    def test_summary_counters_per_run(self, tmp_path):
        cfg = write_config(tmp_path, {
            "element": {"kind": "CI", "gamma": 0.0},
            "blocks": {"plant": {"num": [0.0], "den": [1.0]}},
            "simulation": {"dt": 1e-3, "t_end": 6 * np.pi, "gamma_sweep": [0.0, 1.0],
                           "input": {"kind": "sinusoid", "amplitude": 1.0, "freq": 1.0}},
        })
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "trace.csv"),
                        "--summary", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        summary = json.loads(paths[0].read_text())
        assert sorted(summary) == ["_gamma0", "_gamma1"]
        # crossings at k pi: gamma = 0 resets at each, the identity reset is
        # suppressed by the guard at each; after the first, each gap of
        # 3142 steps takes one batch
        assert summary["_gamma0"] == {
            "steps": 18849, "batches": 15, "crossings": 5, "resets_fired": 5, "suppressed_dwell": 0,
            "suppressed_guard": 0, "suppressed_tolerance": 0,
            "min_reset_gap": summary["_gamma0"]["min_reset_gap"], "diverged": False,
            "cells": 1}
        assert abs(summary["_gamma0"]["min_reset_gap"] - np.pi) <= 1e-9
        assert summary["_gamma1"]["suppressed_guard"] == 5
        assert summary["_gamma1"]["resets_fired"] == 0
        assert summary["_gamma1"]["min_reset_gap"] is None


def grid_points(command):
    """The --grid-points flag for the commands that take it."""
    return [] if command == "simulate" else ["--grid-points", "400"]


def lead_shaped(**changes):
    cfg = {"element": {"kind": "GFORE", "omega_r": 1.0, "gamma": 0.0},
           "blocks": {"plant": {"num": [1.0], "den": [1.0, 1.0]},
                      "c_s": {"num": [1.0, 1.0], "den": [1.0, 0.1]}},
           "simulation": {"dt": 0.01, "t_end": 1.0}}
    cfg.update(changes.pop("top", {}))
    cfg["blocks"].update(changes)
    return cfg


class TestMalformedLoopInput:
    @pytest.mark.parametrize("command, cfg", [
        ("classify", lead_shaped(top={"architecture": "foo"})),
        ("simulate", lead_shaped(top={"architecture": "foo"})),
        ("classify", lead_shaped(plant={"num": [1.0], "den": [0]})),
        ("classify", lead_shaped(plant={"num": ["a"], "den": [1.0, 1.0]})),
        ("classify", lead_shaped(top={"element": {"kind": "GFORE", "omega_r": "a"}})),
        ("classify", lead_shaped(top={"architecture": "modified",
                                      "element": {"kind": "SOSRE", "omega_r": 2.0}})),
        ("gsore-check", dict(gsore_config(), gsore={"n_minus_m": 4})),
        ("gsore-check", dict(gsore_config(), gsore={"k_s0": 1.0})),
        ("classify", lead_shaped(top={"plant_rhp_poles": "a"})),
        ("classify", lead_shaped(top={"plant_origin_poles": [1]})),
        ("hbeta", lead_shaped(top={"candidate": {"beta_prime": "x", "rho_prime": 1.0}})),
        ("hbeta", lead_shaped(top={"candidate": {"beta_prime": 1.0, "rho_prime": None}})),
        ("hbeta", lead_shaped(top={"candidate": {"beta_prime": 1.0}})),
        ("gsore-check", dict(gsore_config(), optimizer={"population": "x"})),
        ("gsore-check", dict(gsore_config(), optimizer={"generations": [150]})),
        ("gsore-check", dict(gsore_config(), optimizer={"restarts": 1e999})),
        ("simulate", lead_shaped(top={"simulation": {"dt": "x", "t_end": 1.0}})),
        ("simulate", lead_shaped(top={"simulation": {"dt": 0.01, "t_end": "x"}})),
        ("simulate", lead_shaped(top={"simulation": {
            "dt": 0.01, "t_end": 1.0, "input": {"kind": "step", "amplitude": "x"}}})),
        ("simulate", lead_shaped(top={"simulation": {
            "dt": 0.01, "t_end": 1.0, "input": {"kind": "sinusoid", "freq": "x"}}})),
        ("simulate", lead_shaped(top={"simulation": {
            "dt": 0.01, "t_end": 1.0, "input": {"kind": "sinusoid", "phase": "x"}}})),
        ("simulate", lead_shaped(top={"simulation": {
            "dt": 0.01, "t_end": 1.0, "gamma_sweep": [0.0, "x"]}})),
        ("simulate", lead_shaped(top={"simulation": {"dt": 0.01, "t_end": 1.0, "lambda": "x"}})),
    ], ids=["architecture-classify", "architecture-simulate", "zero-den", "text-num",
            "text-element-field", "sosre-modified", "rational-gsore-override",
            "gsore-k_s0", "text-rhp-poles", "list-origin-poles", "text-beta-prime",
            "null-rho-prime", "missing-rho-prime", "text-population", "list-generations",
            "infinite-restarts", "text-dt", "text-t-end", "text-amplitude", "text-freq",
            "text-phase", "text-gamma-sweep", "text-lambda"])
    def test_refused_with_exit_1(self, tmp_path, capsys, command, cfg):
        path = write_config(tmp_path, cfg)
        assert run([command, "--config", path, "--out", str(tmp_path / "out")]
                   + grid_points(command)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("command, cfg, field", [
        ("simulate", lead_shaped(top={"simulation": {"dt": 0.01, "t_end": 1.0,
                                                     "x0": ["a", 0]}}), "simulation.x0[0]"),
        ("hbeta", lead_shaped(top={"candidate": 5}), "candidate"),
        ("gsore-check", dict(gsore_config(), optimizer="x"), "optimizer"),
        ("simulate", lead_shaped(top={"simulation": {"input": 5}}), "simulation.input"),
        ("simulate", lead_shaped(top={"simulation": {"dt": 0.01, "t_end": 1.0,
                                                     "gamma_sweep": 5}}),
         "simulation.gamma_sweep"),
        ("simulate", lead_shaped(top={"simulation": {"input": {"kind": "exppoly",
                                                               "terms": [[1, "x", 0, 0, 0]]}}}),
         "simulation.input.terms[0][1]"),
        ("classify", lead_shaped(c_l1={"template": "cglp_pid", "params": [1]}),
         "blocks.c_l1.params"),
        ("simulate", lead_shaped(top={"simulation": {"dt": 0.01, "t_end": 1.0,
                                                     "input": {"kind": "foo"}}}),
         "simulation.input.kind"),
        ("simulate", lead_shaped(top={"simulation": {"dt": -0.01, "t_end": 1.0}}),
         "simulation.dt"),
        ("simulate", lead_shaped(top={"simulation": {"dt": 0.01, "t_end": 0.01}}),
         "simulation.t_end"),
        ("simulate", lead_shaped(top={"simulation": {"dt": 0.01, "t_end": 1.0,
                                                     "lambda": -1.0}}), "simulation.lambda"),
        ("simulate", lead_shaped(top={"simulation": {"dt": 0.01, "t_end": 1.0, "input": {
            "kind": "exppoly", "terms": [[1, 0.5, 0, 0, 0]]}}}),
         "simulation.input.terms[0][1]"),
        ("simulate", lead_shaped(top={"simulation": {"dt": 0.01, "t_end": 1.0, "input": {
            "kind": "exppoly", "terms": [[1, 0, 0, 0, 0], [1, 0]]}}}),
         "simulation.input.terms[1]"),
        ("classify", lead_shaped(top={"plant_rhp_poles": 1.5}), "plant_rhp_poles"),
        ("gsore-check", dict(gsore_config(), optimizer={"population": 60.5}),
         "optimizer.population"),
        # a key that no command reads is refused, not ignored
        ("classify", lead_shaped(top={"plant_rhp_pole": 1}), "top level"),
        ("classify", lead_shaped(top={"element": {"kind": "GFORE", "omegar": 50.0}}), "element"),
        ("classify", lead_shaped(cs={"num": [1.0, 1.0], "den": [1.0, 0.1]}), "blocks"),
        ("classify", lead_shaped(plant={"num": [1.0], "den": [1.0, 1.0], "gain": 2.0}),
         "blocks.plant"),
        ("classify", lead_shaped(c_l1={"template": "cglp_pid", "params": {
            "k_p": 1.0, "omega_c": 1.0, "omega_d": 3.6, "xi_d": 1.0, "omega_r": 4.0}}),
         "blocks.c_l1.params"),
        ("gsore-check", dict(gsore_config(), optimizer={"population": 20, "generations": 2,
                                                        "restarts": 1, "seeds": 4}), "optimizer"),
        ("hbeta", lead_shaped(top={"candidate": {"beta_prime": 1.0, "rho_prime": 1.0,
                                                 "gamma": 0.5}}), "candidate"),
        ("simulate", lead_shaped(top={"simulation": {"dt": 0.01, "t_end": 1.0, "tend": 5.0}}),
         "simulation"),
        ("simulate", lead_shaped(top={"simulation": {"dt": 0.01, "t_end": 1.0, "input": {
            "kind": "step", "amp": 2.0}}}), "simulation.input"),
        # Python's json reads NaN, Infinity and -Infinity; a NaN plant
        # coefficient used to read as an exact zero, and 1/(1 + s) was certified
        ("classify", lead_shaped(plant={"num": [1.0], "den": [1.0, 1.0, float("nan")]}),
         "blocks.plant.den[2]"),
        ("classify", lead_shaped(c_l1=float("inf")), "blocks.c_l1"),
        ("classify", lead_shaped(c_s={"num": [1.0, float("-inf")], "den": [1.0, 0.1]}),
         "blocks.c_s.num[1]"),
        ("classify", lead_shaped(top={"element": {"kind": "GFORE", "omega_r": float("nan")}}),
         "element.omega_r"),
        ("hbeta", lead_shaped(top={"element": {"kind": "GFORE", "omega_r": 1.0,
                                               "gamma": float("inf")}}), "element.gamma"),
        ("classify", lead_shaped(c_l1={"template": "cglp_pid", "params": {
            "k_p": float("nan"), "omega_c": 1.0, "omega_d": 3.6, "xi_d": 1.0}}),
         "blocks.c_l1.params.k_p"),
        ("simulate", lead_shaped(top={"simulation": {"dt": 0.01, "t_end": float("inf")}}),
         "simulation.t_end"),
        # these three used to end in a ZeroDivisionError, an OverflowError and
        # an allocation error
        ("classify", lead_shaped(c_l1={"template": "cglp_pid", "params": {
            "k_p": 1.0, "omega_c": 0, "omega_d": 3.6, "xi_d": 1.0}}), "blocks.c_l1.params"),
        ("classify", lead_shaped(c_l1={"template": "cglp_pid", "params": {
            "k_p": 1.0, "omega_c": 1e300, "omega_d": 3.6, "xi_d": 1.0}}), "blocks.c_l1.params"),
        ("simulate", lead_shaped(top={"simulation": {"dt": 0.01, "t_end": 1.0, "input": {
            "kind": "exppoly", "terms": [[1, 2**70, 0, 0, 0]]}}}),
         "simulation.input.terms[0][1]"),
        # a null plant used to read as P = 1, and that loop was certified
        ("classify", lead_shaped(plant=None), "blocks.plant"),
    ], ids=["text-x0", "number-candidate", "text-optimizer", "number-input",
            "number-gamma-sweep", "text-term", "list-template-params", "unknown-input-kind",
            "negative-dt", "t-end-not-above-dt", "negative-lambda", "fractional-power",
            "short-term", "fractional-rhp-poles", "fractional-population", "unknown-top-level",
            "unknown-element", "unknown-blocks", "unknown-block", "unknown-template-params",
            "unknown-optimizer", "unknown-candidate", "unknown-simulation",
            "unknown-simulation-input", "nan-plant-den", "inf-block", "inf-shaping-num",
            "nan-omega-r", "inf-gamma", "nan-template-param", "inf-t-end", "zero-omega-c",
            "huge-omega-c", "huge-power", "null-plant"])
    def test_malformed_section_names_the_field(self, tmp_path, capsys, command, cfg, field):
        path = write_config(tmp_path, cfg)
        assert run([command, "--config", path, "--out", str(tmp_path / "out")]
                   + grid_points(command)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"config field {field} " in err

    # each of these used to end in a traceback or an allocation error
    @pytest.mark.parametrize("command, cfg, message", [
        ("hbeta", lead_shaped(plant={"num": [1e300, 1e-300], "den": [1.0, 1.0]}),
         "no roots of the polynomial"),
        ("gsore-check", dict(gsore_config(), element={"kind": "GSORE", "omega_r": 1e300}),
         "omega_r 1e+300 has no finite square"),
        ("gsore-check", dict(gsore_config(), optimizer={"population": 2**70}),
         "optimizer.population must lie in [20, 2000]"),
        ("gsore-check", dict(gsore_config(), optimizer={"generations": 1e300}),
         "optimizer.generations must lie in [1, 10000]"),
        ("gsore-check", dict(gsore_config(), optimizer={"restarts": 101}),
         "optimizer.restarts must lie in [1, 100]"),
    ], ids=["huge-companion", "huge-omega-r", "huge-population", "huge-generations",
            "many-restarts"])
    def test_out_of_range_refused(self, tmp_path, capsys, command, cfg, message):
        path = write_config(tmp_path, cfg)
        assert run([command, "--config", path, "--out", str(tmp_path / "out")]
                   + grid_points(command)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_too_few_grid_points_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, GFORE_DEMO)
        assert run(["classify", "--config", cfg, "--grid-points", "2"]) == 1


class TestNonFiniteTable:
    """A NaN table value used to end in a ValueError in the winding count."""

    @pytest.mark.parametrize("command, flags", [
        ("frf-convert", ["--out"]),
        ("classify", ["--asymptote", "0,-2", "--grid-points", "400", "--out"]),
    ])
    def test_table_row_exit_1(self, tmp_path, capsys, command, flags):
        frf = write_frf(tmp_path, [1.0], [1.0, 1.0], np.logspace(-2, 2, 200))
        rows = frf.read_text().splitlines()
        rows[7] = rows[7].split(",")[0] + ",nan,0"
        frf.write_text("\n".join(rows) + "\n")
        argv = [command, "--frf", str(frf), *flags, str(tmp_path / "out")]
        if command == "classify":
            argv += ["--config", write_config(tmp_path, GFORE_DEMO)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert "plant.csv:8: non-finite number" in err and "Traceback" not in err

    @staticmethod
    def gsore_check_one_entry(tmp_path, row, column, value, optimizer):
        """gsore-check's exit code on a 60-row table of 1/(s + 1) whose ``row``
        has ``value`` in ``column``."""
        frf = write_frf(tmp_path, [1.0], [1.0, 1.0], np.logspace(-2, 2, 60))
        rows = frf.read_text().splitlines()
        fields = rows[row].split(",")
        fields[column] = repr(value)
        rows[row] = ",".join(fields)
        frf.write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path, dict(GSORE_TABLE_LOOP, gsore=TABLE_CONSTANTS,
                                          optimizer=optimizer))
        return run(["gsore-check", "--config", cfg, "--frf", str(frf), "--grid-points", "64",
                    "--out", str(tmp_path / "out.json")])

    @pytest.mark.parametrize("row, column, value", [(11, 1, -1e300), (35, 2, 1e308)])
    def test_huge_entry_gsore_check_exit_1(self, tmp_path, capsys, row, column, value):
        # the GSORE forms overflow near the row, every objective value was
        # NaN, and the run ended in a ValueError from the empty search
        assert self.gsore_check_one_entry(tmp_path, row, column, value,
                                          GSORE_TABLE_LOOP["optimizer"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "rad/s" in err[0]

    def test_objective_overflow_is_not_certified(self, tmp_path):
        # finite forms near a 1e156 entry overflow every objective value to
        # NaN; the search used to end in the same ValueError
        assert self.gsore_check_one_entry(tmp_path, 44, 1, 1e156, {
            "population": 20, "generations": 2, "restarts": 1}) == 2
        assert json.loads((tmp_path / "out.json").read_text())["certified"] is False


def write_frf(tmp_path, num, den, band):
    """A complex-format FRF table of num/den on ``band`` (rad/s)."""
    from resetcert.lti import evaluate, tf
    vals = evaluate(tf(num, den), band)
    frf = tmp_path / "plant.csv"
    frf.write_text("".join(f"{w / (2 * np.pi):.17g},{v.real:.17g},{v.imag:.17g}\n"
                           for w, v in zip(band, vals)))
    return frf


GSORE_TABLE_LOOP = {"element": {"kind": "GSORE", "omega_r": 2.0, "xi": 1.0,
                                "gamma1": 0.4, "gamma2": 0.4},
                    "optimizer": {"population": 60, "generations": 150, "restarts": 1}}
TABLE_CONSTANTS = {"origin_pole": False, "k_n": 0.8, "n_minus_m": 3}


class TestMeasuredPlantConfigValues:
    """A measured plant's declared loop constants are checked as read: a
    wrong one exits 1 with an error that says why, instead of a misread
    value or a traceback."""

    @pytest.mark.parametrize("cfg, message", [
        (dict(GSORE_TABLE_LOOP, gsore=dict(TABLE_CONSTANTS, origin_pole="false")),
         "config field gsore.origin_pole "),
        (dict(GSORE_TABLE_LOOP, gsore=dict(TABLE_CONSTANTS, origin_pole=0)),
         "config field gsore.origin_pole "),
        (dict(GSORE_TABLE_LOOP, gsore=dict(TABLE_CONSTANTS, n_minus_m="three")),
         "config field gsore.n_minus_m "),
        (dict(GSORE_TABLE_LOOP, gsore=dict(TABLE_CONSTANTS, n_minus_m=3.5)),
         "config field gsore.n_minus_m "),
        (dict(GSORE_TABLE_LOOP, gsore=dict(TABLE_CONSTANTS, k_n="x")), "config field gsore.k_n "),
        (dict(GSORE_TABLE_LOOP, gsore={"origin_pole": False, "n_minus_m": 3}), "k_n is required"),
    ], ids=["text-origin-pole", "number-origin-pole", "text-n-minus-m", "fractional-n-minus-m",
            "text-k-n", "missing-k-n"])
    def test_refused_with_exit_1(self, tmp_path, capsys, cfg, message):
        frf = write_frf(tmp_path, [0.8], [1.0, 1.0], np.logspace(-3, 3, 1500))
        path = write_config(tmp_path, cfg)
        assert run(["gsore-check", "--config", path, "--frf", str(frf), "--grid-points", "800",
                    "--out", str(tmp_path / "out.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert message in err

    def test_declared_constants_are_read(self, tmp_path):
        frf = write_frf(tmp_path, [0.8], [1.0, 1.0], np.logspace(-3, 3, 1500))
        path = write_config(tmp_path, dict(GSORE_TABLE_LOOP, gsore=TABLE_CONSTANTS))
        out = tmp_path / "out.json"
        assert run(["gsore-check", "--config", path, "--frf", str(frf), "--grid-points", "800",
                    "--out", str(out)]) in (0, 2)
        assert json.loads(out.read_text())["problem_type"] == "V"


class TestClassifyFromFrf:
    def test_measured_plant_with_asymptotes(self, tmp_path):
        frf = write_frf(tmp_path, [1.0], [1.0, 1.0], np.logspace(-2, 2, 1200))
        cfg = write_config(tmp_path, {"element": {"kind": "GFORE", "omega_r": 1.0,
                                                  "gamma": 0.2}})
        out = tmp_path / "verdict.json"
        code = run(["classify", "--config", cfg, "--frf", str(frf),
                    "--asymptote", "0,-2", "--out", str(out),
                    "--grid-points", "800"])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["certified"] is True
        assert statuses(data)["open-loop-minimality"] == "assumed"


class TestFrfConvert:
    def test_complex_to_magphase_and_back(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("1.0,1.0,0.0\n2.0,0.0,-0.5\n")
        mid = tmp_path / "mid.csv"
        out = tmp_path / "out.csv"
        assert run(["frf-convert", "--frf", str(src), "--frf-format", "complex",
                    "--to", "magphase", "--out", str(mid)]) == 0
        assert run(["frf-convert", "--frf", str(mid), "--frf-format", "magphase",
                    "--to", "complex", "--out", str(out)]) == 0
        t0 = load_frf(src, "complex")
        t1 = load_frf(out, "complex")
        np.testing.assert_allclose(t1.values, t0.values, atol=1e-12)

    def test_magnitude_beyond_a_float_exit_1(self, tmp_path, capsys):
        # 10^(7000/20) overflows a float; it used to end in an OverflowError
        src = tmp_path / "big.csv"
        src.write_text("# freq_hz,mag_db,phase_deg\n0.01,0,0\n0.1,7000,0\n1.0,0,0\n")
        assert run(["frf-convert", "--frf", str(src), "--frf-format", "magphase",
                    "--out", str(tmp_path / "out.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "big.csv:3: magnitude 7000.0 dB" in err


def small_gsore_config():
    cfg = gsore_config()
    cfg["optimizer"] = {"population": 30, "generations": 40, "restarts": 1}
    return cfg


class TestEntryPoint:
    """``python -m resetcert.cli`` (the ``resetcert`` script's path) gives the
    exit code and output bytes of the in-process ``main``."""

    @pytest.mark.parametrize("command, cfg, extra", [
        ("classify", GFORE_DEMO, []),
        ("classify", CI_ORIGIN, []),
        ("gsore-check", small_gsore_config(), ["--seed", "42"]),
    ], ids=["classify-certified", "classify-not-certified", "gsore-check"])
    def test_module_run_matches_main(self, tmp_path, src_env, command, cfg, extra):
        path = write_config(tmp_path, cfg)
        args = [command, "--config", path, "--grid-points", "400"] + extra
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        code = run(args + ["--out", str(a)])
        proc = subprocess.run([sys.executable, "-m", "resetcert.cli"] + args + ["--out", str(b)],
                              env=src_env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert b.read_bytes() == a.read_bytes()


class TestUsage:
    """Usage errors exit 1 (2 means "not certified"), and each command takes
    only the flags it reads."""

    def test_unknown_flag_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GFORE_DEMO)
        assert run(["classify", "--config", cfg, "--bogus"]) == 1
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert run([]) == 1
        assert run(["no-such-command"]) == 1
        assert run(["classify", "--grid-points", "many"]) == 1

    @pytest.mark.parametrize("command", ["gsore-check", "hbeta"])
    def test_nsv_out_only_where_written(self, tmp_path, command):
        cfg = write_config(tmp_path, small_gsore_config() if command == "gsore-check"
                           else GFORE_DEMO)
        nsv = tmp_path / "nsv.csv"
        assert run([command, "--config", cfg, "--grid-points", "400",
                    "--nsv-out", str(nsv)]) == 1
        assert not nsv.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("classify", "--seed", "3"), ("hbeta", "--seed", "3"), ("simulate", "--seed", "3"),
        ("gsore-check", "--asymptote", "0,-2"), ("hbeta", "--asymptote", "0,-2"),
        ("simulate", "--asymptote", "0,-2"), ("classify", "--summary", "s.json"),
        ("classify", "--to", "magphase"), ("hbeta", "--frf", "p.csv"),
        ("simulate", "--frf", "p.csv"), ("hbeta", "--frf-format", "complex"),
        ("simulate", "--frf-format", "magphase"), ("simulate", "--nsv-out", "nsv.csv"),
        ("simulate", "--grid-points", "400")])
    def test_flag_a_command_does_not_read(self, tmp_path, command, flag, value):
        cfg = write_config(tmp_path, small_gsore_config() if command == "gsore-check"
                           else GFORE_DEMO)
        assert run([command, "--config", cfg] + grid_points(command) + [
            flag, value, "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()

    def test_frf_convert_reads_no_loop_flags(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("1.0,1.0,0.0\n2.0,0.0,-0.5\n")
        out = tmp_path / "out.csv"
        for flag, value in (("--config", write_config(tmp_path, GFORE_DEMO)),
                            ("--grid-points", "400"), ("--seed", "3")):
            assert run(["frf-convert", "--frf", str(src), flag, value,
                        "--out", str(out)]) == 1
            assert not out.exists()

    def test_benchmark_commands_use_only_flags_they_read(self, tmp_path, workloads):
        from resetcert.cli import build_parser
        for name, argv in workloads.cli_inputs(1, str(tmp_path)).items():
            args = build_parser().parse_args(argv)
            assert args.command == argv[0], name


FILE_FLAGS = {      # command: the file flags it reads
    "classify": ("--config", "--frf", "--out"),
    "gsore-check": ("--config", "--frf", "--out"),
    "hbeta": ("--config", "--out"),
    "simulate": ("--config", "--out"),
    "frf-convert": ("--frf", "--out"),
}
REQUIRED = {"classify": ("--config",), "gsore-check": ("--config",), "hbeta": ("--config",),
            "simulate": ("--config", "--out"), "frf-convert": ("--frf", "--out")}


class TestCliBoundary:
    """A file a command cannot read, write or decode as UTF-8, a grid past
    its bound and a required flag left out each exit 1 and write nothing;
    a file or grid fault is one ``error:`` line, never a traceback."""

    @staticmethod
    def files(tmp_path, command):
        """A valid --config, --frf and --out for ``command``."""
        cfg = small_gsore_config() if command == "gsore-check" else lead_shaped()
        return {"--config": write_config(tmp_path, cfg),
                "--frf": str(write_frf(tmp_path, [1.0], [1.0, 1.0], np.logspace(-2, 2, 60))),
                "--out": str(tmp_path / "out")}

    @pytest.mark.parametrize("command, flag, fault", [
        (command, flag, fault) for command, flags in FILE_FLAGS.items() for flag in flags
        for fault in (("directory", "missing-directory") if flag == "--out"
                      else ("directory", "not-utf8"))])
    def test_file_fault_is_one_error_line(self, tmp_path, capsys, command, flag, fault):
        paths = self.files(tmp_path, command)
        bad = tmp_path / "bad"
        if fault == "directory":
            bad.mkdir()
        elif fault == "missing-directory":
            bad = tmp_path / "missing" / "out"
        elif flag == "--config":
            bad.write_bytes(json.dumps(lead_shaped()).encode("utf-16"))
        else:
            bad.write_bytes("1.0,1.0,0.0\n2.0,0.5,-0.5\n".encode("utf-16"))
        paths[flag] = str(bad)
        # an optional --frf only where it is the fault: on the config's
        # rational plant each command runs through to its output
        flags = [f for f in FILE_FLAGS[command] if f in (flag, "--out", *REQUIRED[command])]
        argv = [command, *(x for f in flags for x in (f, paths[f]))]
        assert run(argv + ([] if command in ("simulate", "frf-convert") else
                           ["--grid-points", "400"])) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and str(bad) in line and ".tmp-" not in line
        assert not (tmp_path / "out").exists() and not list(tmp_path.rglob(".tmp-*"))
        assert fault != "directory" or not any(bad.iterdir())

    @pytest.mark.parametrize("text, message", [
        ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
        ('{"plant_rhp_poles": ' + "1" * 5000 + "}", "Exceeds the limit (4300 digits)")],
        ids=["deep-nesting", "long-integer"])
    def test_json_past_the_parser_limits_is_one_error_line(self, tmp_path, capsys, text,
                                                          message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert run(["classify", "--config", str(path)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: invalid JSON in {path}: ") and message in line

    @pytest.mark.parametrize("command", ["classify", "hbeta", "gsore-check"])
    def test_grid_past_the_bound_is_one_error_line(self, tmp_path, capsys, command):
        paths = self.files(tmp_path, command)
        assert run([command, "--config", paths["--config"], "--out", paths["--out"],
                    "--grid-points", str(10**12)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"error: {10**12} grid points; a verdict reads at most 100000"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in REQUIRED.items() for flag in flags])
    def test_required_flag_left_out(self, tmp_path, capsys, command, flag):
        paths = self.files(tmp_path, command)
        before = set(tmp_path.iterdir())
        flags = [f for f in dict.fromkeys(REQUIRED[command] + ("--out",)) if f != flag]
        assert run([command, *(x for f in flags for x in (f, paths[f]))]) == 1
        err = capsys.readouterr().err
        assert f"the following arguments are required: {flag}" in err
        assert set(tmp_path.iterdir()) == before


class TestVerdictShape:
    """classify, hbeta and gsore-check write one shape: ``certified``, the
    condition records, and only the command's own payload."""

    RECORD_KEYS = {"id", "status", "margin", "omega", "detail"}
    PAYLOAD = {
        "classify": {"theta1", "theta2", "theta1_omega", "theta2_omega", "grid_points",
                     "k_s0", "k_n"},
        "hbeta": {"candidate"},
        "gsore-check": {"problem_type", "q", "m_value", "reconstructed", "seed",
                        "ratio_windows", "search"},
    }
    UNSTABLE = {"element": {"kind": "GFORE", "omega_r": 1.0},
                "blocks": {"plant": {"num": [20.0], "den": [1.0, 2.0, 1.0]}}}

    @pytest.mark.parametrize("command, cfg, code", [
        ("classify", GFORE_DEMO, 0), ("classify", CI_ORIGIN, 2),
        ("hbeta", GFORE_DEMO, 0),
        ("hbeta", dict(GFORE_DEMO, candidate={"beta_prime": -1.0, "rho_prime": 0.001}), 2),
        ("hbeta", UNSTABLE, 2), ("gsore-check", small_gsore_config(), 0)],
        ids=["classify", "classify-refused", "hbeta", "hbeta-refused", "hbeta-no-candidate",
             "gsore-check"])
    def test_certified_and_records(self, tmp_path, command, cfg, code):
        out = tmp_path / "out.json"
        assert run([command, "--config", write_config(tmp_path, cfg), "--grid-points", "400",
                    "--out", str(out)]) == code
        data = json.loads(out.read_text())
        assert set(data) == {"certified", "conditions"} | self.PAYLOAD[command]
        assert data["certified"] is (code == 0)
        assert data["certified"] == all(c["status"] != "fail" for c in data["conditions"])
        for c in data["conditions"]:
            assert set(c) == self.RECORD_KEYS
            assert c["status"] in ("pass", "fail", "conditional", "assumed", "skipped")

    def test_no_candidate_says_why(self, tmp_path):
        out = tmp_path / "out.json"
        assert run(["hbeta", "--config", write_config(tmp_path, self.UNSTABLE),
                    "--grid-points", "400", "--out", str(out)]) == 2
        data = json.loads(out.read_text())
        assert data["candidate"] is None
        assert statuses(data) == {"candidate-search": "fail"}


class TestRationalPlantRefusesTableSettings:
    """plant_rhp_poles, plant_origin_poles and --asymptote describe a measured
    plant; with a rational plant classify refuses them instead of dropping
    them."""

    @pytest.mark.parametrize("top, extra", [
        ({"plant_rhp_poles": 3}, []), ({"plant_origin_poles": 1}, []),
        ({"plant_rhp_poles": 0}, []), ({}, ["--asymptote", "0,-2"])],
        ids=["rhp-poles", "origin-poles", "rhp-poles-zero", "asymptote"])
    def test_exit_1(self, tmp_path, capsys, top, extra):
        cfg = write_config(tmp_path, dict(GFORE_DEMO, **top))
        out = tmp_path / "out.json"
        assert run(["classify", "--config", cfg, "--grid-points", "400", "--out", str(out)]
                   + extra) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error:") and "measured plant" in err


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_schema_lists_the_config_keys():
    """The README's jsonc schema block holds exactly the keys of cli.CONFIG,
    object by object."""
    text = open(README, encoding="utf-8").read()
    block = re.search(r"### Configuration schema\n\n```jsonc\n(.*?)```", text, re.S).group(1)
    doc = json.loads(re.sub(r"//.*", "", block))

    def compare(kind, node, field):
        assert sorted(node) == sorted(kind), field or "top level"
        for key, sub in kind.items():
            if isinstance(sub, dict):
                compare(sub, node[key], f"{field}.{key}" if field else key)

    compare(CONFIG, doc, "")
