"""scipy stays out of ``import resetcert`` and the CLI until gsore is used."""

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


def test_gsore_imports_scipy_optimize(src_env):
    assert "scipy.optimize" in loaded_after(src_env, "import resetcert.gsore")


def test_lazy_gsore_exports():
    from resetcert import GsoreProblem, gamma_factor  # noqa: F401
    assert resetcert.certify is resetcert.gsore.certify
    assert resetcert.gamma_factor is resetcert.gsore.gamma_factor
    assert getattr(resetcert, "no_such_name", None) is None
