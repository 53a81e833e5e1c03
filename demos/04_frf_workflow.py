"""Certification straight from measured frequency-response data.

The whole point of the frequency-domain route: no parametric plant model is
needed.  Here a synthetic 'measurement' is exported to the CSV exchange
format, loaded back, and the reset loop is classified from the samples
alone, with the out-of-band behaviour supplied as declared asymptotic
slopes.  The verdict agrees with the one computed from the underlying
rational model.
"""

import numpy as np

from resetcert.elements import gfore
from resetcert.frf import FrfTable, load_frf, save_frf
from resetcert.lti import evaluate, tf
from resetcert.nsv import certify_first_order

def show(conditions):
    """One line per condition record: id, status, margin, where, detail."""
    for c in conditions:
        margin = "" if c.margin is None else f"{c.margin:.4g}"
        where = "" if c.omega is None else f"w = {c.omega:.4g}"
        print(f"  {c.id:30s} {c.status:12s} {margin:>11s} {where:14s} {c.detail}")


one = tf([1.0])
plant = tf([1.0], [1.0, 1.0])
element = gfore(1.0, gamma=0.2)

# synthesize the measurement over 3 decades and write it out
band = np.logspace(-2, 2, 1200)
table = FrfTable(band, evaluate(plant, band))
save_frf(table, "plant_frf.csv", "complex")
print("wrote plant_frf.csv,", band.size, "rows")

measured = load_frf("plant_frf.csv", "complex")
verdict_frf = certify_first_order(
    element, one, one, measured,
    plant_rhp_poles=0, plant_origin_poles=0,
    asymptote=(0, -2),        # loop slopes below/above the band: flat, then w^-2
)
verdict_model = certify_first_order(element, one, one, plant)

print("\nmeasured-data verdict:", verdict_frf.certified)
show(verdict_frf.conditions)
print("rational-model verdict:", verdict_model.certified)
assert verdict_frf.certified == verdict_model.certified

tv_f, tv_m = verdict_frf.type_verdict, verdict_model.type_verdict
print(f"angle ranges (deg): measured [{np.degrees(tv_f.theta1):.2f}, "
      f"{np.degrees(tv_f.theta2):.2f}]  model [{np.degrees(tv_m.theta1):.2f}, "
      f"{np.degrees(tv_m.theta2):.2f}]")

# the same file converted to magnitude/phase columns for lab tooling
save_frf(measured, "plant_frf_magphase.csv", "magphase")
print("wrote plant_frf_magphase.csv")
