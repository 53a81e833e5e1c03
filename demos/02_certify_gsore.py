"""Certify a second-order reset loop through the constrained optimization.

The plant is a double integrator with a parasitic double pole at 200 rad/s
(a stylized precision positioning stage) under a constant-gain lead-phase
compensator plus PID; the resetting stage is a second-order element with
corner 40 rad/s and both reset factors 0.5.  The loop integrates, so the
search runs the origin-pole problem class with the scalar-product interval
reduction, and the result is cross-checked by the independent SPR oracle.
"""

import numpy as np

from resetcert.cli import cglp_pid_blocks
from resetcert.elements import base_tf, gsore
from resetcert.gsore import OptimizerSettings, certify, gsore_problem
from resetcert.lti import base_linear_stability, evaluate, series, tf

def show(conditions):
    """One line per condition record: id, status, margin, where, detail."""
    for c in conditions:
        margin = "" if c.margin is None else f"{c.margin:.4g}"
        where = "" if c.omega is None else f"w = {c.omega:.4g}"
        print(f"  {c.id:30s} {c.status:12s} {margin:>11s} {where:14s} {c.detail}")


one = tf([1.0])
omega_c, omega_d, omega_r, parasitic = 10.0, 36.0, 40.0, 200.0
plant = tf([1.0], np.convolve([0.0, 0.0, 1.0],
                              np.convolve([1.0, 1 / parasitic], [1.0, 1 / parasitic])))
element = gsore(omega_r, xi=1.0, gamma1=0.5, gamma2=0.5)

# pick the proportional gain for unit loop magnitude at the crossover
probe = series(base_tf(element), series(cglp_pid_blocks(1.0, omega_c, omega_d, 1.0), plant))
k_p = 1.0 / abs(evaluate(probe, omega_c))
controller = cglp_pid_blocks(k_p, omega_c, omega_d, 1.0)
loop = series(base_tf(element), series(controller, plant))
print("base linear loop stable:", base_linear_stability(loop).stable)

problem = gsore_problem(element, one, controller, plant)
print("problem class:", problem.problem_type,
      "| k_s0 =", problem.k_s0, "| n - m =", problem.n_minus_m)

result = certify(problem, OptimizerSettings(population=120, generations=300,
                                            restarts=4, seed=42))
print("certified:", result.certified, "| sup ratio M =", f"{result.m_value:.4f}",
      "(must stay below 4)")
print("decision ratios Q1..Q4:", tuple(f"{q:.4g}" for q in result.q))
b1, b2, r1, r2, r3 = result.reconstructed
print(f"certificate: beta = ({b1:.4g}, {b2:.4g}), "
      f"rho = [[{r1:.4g}, {r2:.4g}], [{r2:.4g}, {r3:.4g}]]")
show(result.conditions)
if result.ratio_windows:
    print("pre-reduced search windows:", result.ratio_windows)
