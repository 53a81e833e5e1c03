"""scipy stays out of ``import resetcert`` and the CLI until gsore is used."""

import json
import subprocess
import sys

import resetcert


def loaded_after(env, statement):
    """Names in ``sys.modules`` after ``statement`` runs in a fresh interpreter."""
    code = f"import sys\n{statement}\nprint('\\n'.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_package_and_cli_import_no_scipy(src_env):
    for statement in ("import resetcert", "import resetcert.cli"):
        tops = {name.split(".")[0] for name in loaded_after(src_env, statement)}
        assert "scipy" not in tops, statement
        assert "numpy" in tops


def test_simulate_command_loads_no_scipy(src_env, tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "element": {"kind": "GFORE", "omega_r": 1.0, "gamma": 0.0},
        "blocks": {"plant": {"num": [2.0], "den": [1.0, 1.0]}},
        "simulation": {"t_end": 10.0,
                       "input": {"kind": "sinusoid", "amplitude": 1.0, "freq": 1.0}}}))
    out = tmp_path / "trace.csv"
    argv = ["simulate", "--config", str(cfg), "--out", str(out)]
    statement = f"import resetcert.cli\nassert resetcert.cli.main({argv!r}) == 0"
    tops = {name.split(".")[0] for name in loaded_after(src_env, statement)}
    assert "scipy" not in tops
    assert out.read_text().startswith("t,x_1")


def test_gsore_imports_scipy_optimize(src_env):
    assert "scipy.optimize" in loaded_after(src_env, "import resetcert.gsore")


def test_lazy_gsore_exports():
    from resetcert import GsoreProblem, gamma_factor  # noqa: F401
    assert resetcert.certify is resetcert.gsore.certify
    assert resetcert.gamma_factor is resetcert.gsore.gamma_factor
    assert getattr(resetcert, "no_such_name", None) is None


def test_sim_loads_only_for_simulation(src_env):
    for statement in ("import resetcert", "import resetcert.cli"):
        assert "resetcert.sim" not in loaded_after(src_env, statement), statement
    from resetcert import SimConfig, simulate  # noqa: F401
    assert resetcert.simulate is resetcert.sim.simulate
