import json
import subprocess
import sys

import numpy as np
import pytest

from resetcert.cli import main
from resetcert.frf import load_frf


def run(args):
    return main(args)


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
        assert data["is_type1"] is True

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

    def test_ci_origin_pole_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, CI_ORIGIN)
        out = tmp_path / "verdict.json"
        code = run(["classify", "--config", cfg, "--out", str(out),
                    "--grid-points", "600"])
        assert code == 2
        data = json.loads(out.read_text())
        failed = {b["name"] for b in data["bullets"] if b["status"] == "fail"}
        assert "ci-origin-pole-rule" in failed

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
        assert data["oracle_cross_check"] == "pass"
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
        ({"restarts": 2}, str(2**32 - 1009)),
    ], ids=["restarts-0", "generations-0", "seed-negative", "seed-too-large"])
    def test_invalid_optimizer_settings_exit_1(self, tmp_path, capsys, optimizer, seed):
        cfg = gsore_config()
        cfg["optimizer"].update(optimizer)
        path = write_config(tmp_path, cfg)
        assert run(["gsore-check", "--config", path, "--seed", seed,
                    "--grid-points", "400"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestHbeta:
    def test_search_and_check(self, tmp_path):
        cfg = write_config(tmp_path, GFORE_DEMO)
        out = tmp_path / "h.json"
        code = run(["hbeta", "--config", cfg, "--out", str(out),
                    "--grid-points", "500"])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["passed"] is True
        assert data["limit_zero"]["passed"] and data["limit_inf"]["passed"]

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
        # suppressed by the guard at each
        assert summary["_gamma0"] == {
            "steps": 18849, "crossings": 5, "resets_fired": 5, "suppressed_dwell": 0,
            "suppressed_guard": 0, "suppressed_tolerance": 0,
            "min_reset_gap": summary["_gamma0"]["min_reset_gap"], "diverged": False}
        assert abs(summary["_gamma0"]["min_reset_gap"] - np.pi) <= 1e-9
        assert summary["_gamma1"]["suppressed_guard"] == 5
        assert summary["_gamma1"]["resets_fired"] == 0
        assert summary["_gamma1"]["min_reset_gap"] is None

    def test_nsv_out_monotone(self, tmp_path):
        cfg = write_config(tmp_path, {
            "element": {"kind": "SOSRE", "omega_r": 2.0, "xi": 1.0, "gamma": 0.5},
            "blocks": {"plant": {"num": [1.0], "den": [0.0, 1.0, 1.0]}},
            "simulation": {"dt": 0.01, "t_end": 5.0,
                           "input": {"kind": "step", "amplitude": 1.0}},
        })
        out = tmp_path / "trace.csv"
        nsv = tmp_path / "nsv.csv"
        assert run(["simulate", "--config", cfg, "--out", str(out),
                    "--nsv-out", str(nsv), "--grid-points", "400"]) == 0
        data = np.genfromtxt(nsv, delimiter=",", names=True)
        assert np.all(np.diff(data["omega_rad_s"]) > 0)


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
        assert run([command, "--config", path, "--out", str(tmp_path / "out"),
                    "--grid-points", "400"]) == 1
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
         "template params"),
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
    ], ids=["text-x0", "number-candidate", "text-optimizer", "number-input",
            "number-gamma-sweep", "text-term", "list-template-params", "unknown-input-kind",
            "negative-dt", "t-end-not-above-dt", "negative-lambda", "fractional-power",
            "short-term"])
    def test_malformed_section_names_the_field(self, tmp_path, capsys, command, cfg, field):
        path = write_config(tmp_path, cfg)
        assert run([command, "--config", path, "--out", str(tmp_path / "out"),
                    "--grid-points", "400"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"config field {field} " in err

    def test_too_few_grid_points_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, GFORE_DEMO)
        assert run(["classify", "--config", cfg, "--grid-points", "2"]) == 1


class TestClassifyFromFrf:
    def test_measured_plant_with_asymptotes(self, tmp_path):
        from resetcert.lti import evaluate, tf
        band = np.logspace(-2, 2, 1200)
        vals = evaluate(tf([1.0], [1.0, 1.0]), band)
        frf = tmp_path / "plant.csv"
        lines = [f"{w / (2 * np.pi):.17g},{v.real:.17g},{v.imag:.17g}"
                 for w, v in zip(band, vals)]
        frf.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, {"element": {"kind": "GFORE", "omega_r": 1.0,
                                                  "gamma": 0.2}})
        out = tmp_path / "verdict.json"
        code = run(["classify", "--config", cfg, "--frf", str(frf),
                    "--asymptote", "0,-2", "--out", str(out),
                    "--grid-points", "800"])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["certified"] is True
        statuses = {b["name"]: b["status"] for b in data["bullets"]}
        assert statuses["open-loop-minimality"] == "assumed"


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
