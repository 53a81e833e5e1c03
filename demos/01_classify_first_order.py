"""Classify a first-order reset loop from its frequency response.

A generalized first-order reset element (corner 1 rad/s, reset factor 0)
wrapped around the plant 1/(s+1) gives the loop L = 1/(s+1)^2.  The script
computes the per-frequency stability vector, runs the full certification
checklist, and writes the angle curve for plotting.
"""

import numpy as np

from resetcert.elements import base_tf, gfore
from resetcert.hbeta import search_candidate_scalar, spr_check_scalar
from resetcert.lti import series, tf
from resetcert.nsv import certify_first_order, sufficient_phase_conditions

one = tf([1.0])
plant = tf([1.0], [1.0, 1.0])
element = gfore(1.0, gamma=0.0)

verdict = certify_first_order(element, one, one, plant)
print("certified:", verdict.certified)
print("conditional on well-posed reset instants:", verdict.conditional_on_well_posedness)
for name, status, detail in verdict.bullets:
    print(f"  {name:28s} {status:12s} {detail}")
tv = verdict.type_verdict
print(f"angle range: [{np.degrees(tv.theta1):.1f}, {np.degrees(tv.theta2):.1f}] deg "
      f"-> type I: {tv.is_type1}, type II: {tv.is_type2}")

# the quick sufficient sign tests on the grid the verdict was read from
samples, nsv = verdict.samples, verdict.nsv
pc = sufficient_phase_conditions(samples)
print("shortcut conditions: sin(loop phase) >= 0:", pc.cond_a,
      "| cos(loop - element phase) >= 0:", pc.cond_b)

# an explicit SPR certificate, found by sweeping the candidate direction
cand = search_candidate_scalar(samples, element, one, plant)
rep = spr_check_scalar(cand, samples, element, one, plant)
print(f"SPR candidate (beta', rho') = ({cand.beta_prime:.4f}, {cand.rho_prime:.4f}) "
      f"passes: {rep.passed}")
print(f"  worst grid margin {rep.min_margin:.2e} at w = {rep.worst_omega:.3f} rad/s")
print(f"  limit at w->0: {rep.limit_zero.value:.4f}, "
      f"w^2-scaled limit at w->inf: {rep.limit_inf.value:.4f}")

rows = ["omega_rad_s,theta_deg"]
rows += [f"{w:.9g},{t:.9g}" for w, t in zip(nsv.omega, np.degrees(nsv.theta))]
with open("nsv_angle.csv", "w", encoding="utf-8") as fh:
    fh.write("\n".join(rows) + "\n")
print("wrote nsv_angle.csv with", len(nsv), "rows")
