"""Hybrid simulation of resetting integrators against a closed form.

An open-loop Clegg integrator driven by sin(t) resets whenever its input
crosses zero, so the state is (-1)^k - cos(t) between consecutive multiples
of pi and peaks at exactly 2.  The script checks the simulated trace against
that closed form, then sweeps the reset factor of a first-order reset loop
to show how the jump changes the step response.
"""

import numpy as np

from resetcert.elements import clegg, gfore, realization
from resetcert.lti import assemble_closed_loop, tf
from resetcert.sim import SimConfig, simulate, sinusoid_input, step_input

one, zero = tf([1.0]), tf([0.0])

clegg_open = assemble_closed_loop(realization(clegg(0.0)), [[0.0]], one, one, zero, one)
cfg = SimConfig(clegg_open, dt=1e-3, t_end=6 * np.pi, input=sinusoid_input(1.0, 1.0))
trace = simulate(cfg)

k = np.floor(trace.times / np.pi + 1e-12)
exact = (-1.0) ** k - np.cos(trace.times)
print("max |simulated - closed form|:", f"{np.max(np.abs(trace.states[:, 0] - exact)):.2e}")
print("peak |x|:", f"{np.max(np.abs(trace.states)):.8f}", "(exact value 2)")
print("reset instants / pi:", [f"{t / np.pi:.6f}" for t in trace.reset_instants])
trace.save_csv("clegg_trace.csv")
print("wrote clegg_trace.csv")

print("\nreset-factor sweep on a high-gain first-order reset loop:")
plant = tf([9.0], [1.0, 1.0])
for gamma in (-0.5, 0.0, 0.5, 1.0):
    cl = assemble_closed_loop(realization(gfore(1.0, gamma)), [[gamma]],
                              one, one, plant, one)
    tr = simulate(SimConfig(cl, dt=0.01, t_end=40.0, input=step_input(1.0)))
    print(f"  gamma={gamma:+.1f}: {len(tr.reset_instants):2d} resets, "
          f"peak |y| {np.max(np.abs(tr.outputs)):.4f}, bounded: {not tr.diverged}")
