"""Figure 8: dynamic-model validation — RK4 vs Euler.

Two measurements, as in the paper's embedded table:

- average wall-clock time per model step for the 4th-order Runge-Kutta
  and explicit Euler integrators at the 1 ms step (paper: 0.032 ms vs
  0.011 ms on their C++ implementation);
- average absolute motor/joint position error of the model running in
  parallel with the robot under identical control inputs.

Shapes under test: Euler is ~3x cheaper per step, both stay well inside
the 1 ms real-time budget, and the trajectory errors are of comparable
magnitude (Euler slightly worse).
"""

import numpy as np
import pytest

from repro.core.dynamic_model import RavenDynamicModel
from repro.experiments.fig8 import format_results, run_fig8
from repro.kinematics.workspace import Workspace


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
def test_model_step(benchmark, integrator):
    """Per-step cost of the real-time model (the Fig. 8 'Avg. Time/Step')."""
    model = RavenDynamicModel(integrator=integrator)
    q0 = Workspace().neutral()
    v0 = np.array([0.1, -0.05, 0.01])
    benchmark(model.step, q0, v0, [3000, -2000, 1000])


def test_fig8_artifact(artifact_writer, host_stamp, scale, benchmark):
    rows = benchmark.pedantic(
        run_fig8,
        kwargs={
            "runs": scale.validation_runs,
            "duration_s": scale.validation_duration_s,
        },
        rounds=1,
        iterations=1,
    )
    artifact_writer("fig8_model_validation", f"{host_stamp}\n\n{format_results(rows)}")

    by_name = {r.integrator: r for r in rows}
    euler, rk4 = by_name["euler"], by_name["rk4"]
    # Euler is substantially cheaper (paper: 2.9x)...
    assert rk4.mean_step_ms > 1.5 * euler.mean_step_ms
    # ...and both are fast enough to run inside the 1 ms control period.
    assert euler.mean_step_ms < 1.0
    # Trajectory errors are comparable: Euler within 10x of RK4 per joint.
    assert np.all(euler.jpos_mae < 10 * rk4.jpos_mae + 1e-6)
    # The model follows the robot: open-loop joint errors stay a small
    # fraction of the motion range, while the gear-amplified motor-position
    # errors are large — the same structure as the paper's table (jpos
    # errors ~1-2 deg vs mpos errors >100 deg).
    assert np.all(euler.jpos_mae[:2] < 0.15)
    assert np.all(euler.mpos_mae[:2] > 10 * euler.jpos_mae[:2])
