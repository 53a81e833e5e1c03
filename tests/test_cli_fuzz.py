"""Seeded mutations of CLI inputs through ``cli.main``: every run ends in exit
code 0, 1 or 2, never in an exception past ``main``.

Each node of four command configs (sections, lists and leaves alike) is set
to PER_NODE values drawn from VALUES, the extremes of the JSON value space.
The caps on the optimizer settings, the simulator's step and cell counts and
the exppoly power keep every mutated run short.  FRF tables get one-row
mutations: each column of each file format set to each of FRF_VALUES in one
seeded row, read by every command that takes a table.
"""

import copy
import json

import numpy as np

from resetcert.cli import main
from resetcert.frf import FrfTable, save_frf
from resetcert.lti import evaluate, tf

VALUES = (0, -1, 1, 0.5, 1e300, -1e300, 1e308, 1e-300, 2**70, -2**70, "a", "", [], {},
          True, None, [1e300], [1e300, 1e-300], [2**70, 1], [[1e300, 2**70, 0, 0, 0]])
PER_NODE = 8
TEMPLATE = {"template": "cglp_pid",
            "params": {"k_p": 1.0, "omega_c": 1.0, "omega_d": 3.6, "xi_d": 1.0}}
CONFIGS = {
    "classify": {"element": {"kind": "GFORE", "omega_r": 1.0, "gamma": 0.0},
                 "blocks": {"c_l1": TEMPLATE, "plant": {"num": [1.0], "den": [1.0, 1.0]},
                            "c_s": {"num": [1.0, 1.0], "den": [1.0, 0.1]}},
                 "architecture": "standard"},
    "hbeta": {"element": {"kind": "PCI", "omega_r": 1.0, "gamma": 0.2},
              "blocks": {"plant": {"num": [1.0], "den": [1.0, 1.0]}, "c_l2": 2.0},
              "candidate": {"beta_prime": 1.0, "rho_prime": 1.0}},
    "simulate": {"element": {"kind": "GFORE", "omega_r": 1.0, "gamma": 0.0},
                 "blocks": {"plant": {"num": [1.0], "den": [1.0, 1.0]}},
                 "simulation": {"dt": 0.01, "t_end": 1.0, "lambda": 0.0,
                                "input": {"kind": "exppoly",
                                          "terms": [[1.0, 1, -1.0, 2.0, 0.0]],
                                          "amplitude": 1.0, "freq": 1.0, "phase": 0.0},
                                "x0": [0.0, 0.0], "gamma_sweep": [0.0, 0.5]}},
    "gsore-check": {"element": {"kind": "GSORE", "omega_r": 2.0, "xi": 1.0, "gamma1": 0.4,
                                "gamma2": 0.4, "realization": "controllable"},
                    "blocks": {"c_l2": TEMPLATE,
                               "plant": {"num": [1.0], "den": [0.0, 1.0, 1.0]}},
                    "optimizer": {"population": 20, "generations": 2, "restarts": 1}},
}


def nodes(cfg, path=()):
    """The path of every node below ``cfg``, parents before children."""
    items = (cfg.items() if isinstance(cfg, dict)
             else enumerate(cfg) if isinstance(cfg, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from nodes(child, path + (key,))


def mutated(cfg, path, value):
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


def test_mutated_configs_end_in_an_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(28)
    cfg_path, out = tmp_path / "cfg.json", str(tmp_path / "out")
    raised, codes = [], set()
    for command, base in CONFIGS.items():
        flags = [] if command == "simulate" else ["--grid-points", "64"]
        for path in nodes(base):
            for i in rng.choice(len(VALUES), PER_NODE, replace=False):
                cfg_path.write_text(json.dumps(mutated(base, path, VALUES[i])))
                try:
                    codes.add(main([command, "--config", str(cfg_path), "--out", out] + flags))
                except Exception as exc:     # noqa: BLE001 -- each one is a finding
                    raised.append(f"{command} {'.'.join(map(str, path))} = {VALUES[i]!r}: "
                                  f"{type(exc).__name__}: {exc}")
    capsys.readouterr()
    assert not raised, "\n".join(raised)
    assert codes == {0, 1, 2}


FRF_VALUES = (0.0, 1.0, -1.0, 1e300, -1e300, 1e308, -1e308, 5e-324)
FRF_ROWS = 60
FRF_COMMANDS = {    # command: (config, flags) for a table of 1/(s + 1)
    "classify": ({"element": {"kind": "GFORE", "omega_r": 1.0, "gamma": 0.0}},
                 ["--asymptote", "0,-2", "--grid-points", "64"]),
    "gsore-check": ({"element": {"kind": "GSORE", "omega_r": 2.0, "xi": 1.0, "gamma1": 0.4,
                                 "gamma2": 0.4},
                     "gsore": {"origin_pole": False, "k_n": 1.0, "n_minus_m": 3},
                     "optimizer": {"population": 20, "generations": 2, "restarts": 1}},
                    ["--grid-points", "64"]),
    "frf-convert": (None, []),
}


def test_mutated_frf_rows_end_in_an_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(31)
    omega = np.logspace(-2, 2, FRF_ROWS)
    table = FrfTable(omega, evaluate(tf([1.0], [1.0, 1.0]), omega))
    frf_path, out = tmp_path / "plant.csv", str(tmp_path / "out")
    flags = {}
    for command, (cfg, extra) in FRF_COMMANDS.items():
        flags[command] = extra
        if cfg is not None:
            (tmp_path / f"{command}.json").write_text(json.dumps(cfg))
            flags[command] = extra + ["--config", str(tmp_path / f"{command}.json")]
    raised, codes = [], set()
    for fmt in ("complex", "magphase"):
        save_frf(table, frf_path, fmt)
        header, *rows = frf_path.read_text().splitlines()
        for column in range(3):
            for value in FRF_VALUES:
                row = int(rng.integers(FRF_ROWS))
                fields = rows[row].split(",")
                fields[column] = repr(value)
                frf_path.write_text("\n".join([header, *rows[:row], ",".join(fields),
                                                *rows[row + 1:]]) + "\n")
                for command in FRF_COMMANDS:
                    try:
                        codes.add(main([command, "--frf", str(frf_path), "--frf-format", fmt,
                                        "--out", out] + flags[command]))
                    except Exception as exc:     # noqa: BLE001 -- each one is a finding
                        raised.append(f"{command} {fmt} row {row} column {column} = "
                                      f"{value!r}: {type(exc).__name__}: {exc}")
    capsys.readouterr()
    assert not raised, "\n".join(raised)
    assert codes <= {0, 1, 2} and {0, 1} <= codes
