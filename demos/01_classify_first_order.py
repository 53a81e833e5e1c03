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
from resetcert.nsv import certify_first_order

def show(conditions):
    """One line per condition record: id, status, margin, where, detail."""
    for c in conditions:
        margin = "" if c.margin is None else f"{c.margin:.4g}"
        where = "" if c.omega is None else f"w = {c.omega:.4g}"
        print(f"  {c.id:30s} {c.status:12s} {margin:>11s} {where:14s} {c.detail}")


one = tf([1.0])
plant = tf([1.0], [1.0, 1.0])
element = gfore(1.0, gamma=0.0)

verdict = certify_first_order(element, one, one, plant)
print("certified:", verdict.certified)
show(verdict.conditions)
tv = verdict.type_verdict
print(f"angle range: [{np.degrees(tv.theta1):.1f}, {np.degrees(tv.theta2):.1f}] deg "
      f"-> type I: {tv.is_type1}, type II: {tv.is_type2}")

# an explicit SPR certificate on the grid the verdict was read from: the
# bisector of the arc the N(w) angles span
samples, nsv = verdict.samples, verdict.nsv
cand = search_candidate_scalar(samples, element, one, plant)
rep = spr_check_scalar(cand, samples, element, one, plant)
print(f"SPR candidate (beta', rho') = ({cand.beta_prime:.4f}, {cand.rho_prime:.4f}) "
      f"passes: {rep.passed}")
show(rep.conditions)

rows = ["omega_rad_s,theta_deg"]
rows += [f"{w:.9g},{t:.9g}" for w, t in zip(nsv.omega, np.degrees(nsv.theta))]
with open("nsv_angle.csv", "w", encoding="utf-8") as fh:
    fh.write("\n".join(rows) + "\n")
print("wrote nsv_angle.csv with", len(nsv), "rows")
