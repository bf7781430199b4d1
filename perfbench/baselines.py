"""Re-derive the ROADMAP's measured-baseline figures, printed next to them.

Usage, from the repository root (takes about half a minute):

    python3 perfbench/baselines.py

  * one adaptive Dormand-Prince step on the n=5 chain (RHS evaluations
    counted through a pass-through closure),
  * the verify_killing loop of acceptance criterion 9 (n=2 and n=5, both
    lifts, k=1..n), nearly all of that test's time,
  * the line count of src/.
The batched-step figure has no code to re-derive it from yet.
"""

from __future__ import annotations

import glob
import os
import statistics
import time

import numpy as np

import run

run.import_todalift()

from todalift import killing, toda  # noqa: E402
from todalift.integrate import IntegratorConfig, integrate  # noqa: E402


def dopri5_step_us(repeats: int = 5) -> float:
    system = toda.TodaSystem(5, np.linspace(0.6, 1.4, 4))
    y0 = np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 0.3, -0.1, 0.2, 0.0, -0.4])
    field = toda.flow_field(system)
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_final=20.0, stride=10**9)
    per_step = []
    for _ in range(repeats):
        calls = [0]

        def rhs(t, y):
            calls[0] += 1
            return field(t, y)

        t0 = time.perf_counter()
        integrate(rhs, y0, cfg)
        elapsed = time.perf_counter() - t0
        per_step.append(elapsed / ((calls[0] - 1) // 6))
    return 1e6 * statistics.median(per_step)


def criterion_9_s() -> float:
    t0 = time.perf_counter()
    for n in (2, 5):
        system = toda.TodaSystem(n, np.linspace(0.6, 1.4, n - 1))
        for lift in ("eisenhart", "generalized"):
            for k in range(1, n + 1):
                killing.verify_killing(system, lift, k, samples=100, seed=109, geodesics=10, t_final=20.0)
    return time.perf_counter() - t0


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(run.SRC, "todalift", "*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


if __name__ == "__main__":
    print("machine: " + " ".join(f"{k}={v}" for k, v in run.machine_info().items()))
    print(f"DOPRI5 step, n=5 chain:     {dopri5_step_us():8.1f} us   (ROADMAP: ~123 us)")
    print(f"criterion-9 configuration:  {criterion_9_s():8.2f} s    (ROADMAP: 11.2 s for the whole test)")
    print(f"src/ line count:            {src_lines():8d}      (ROADMAP: 3075)")
