"""Set-up probe: one fresh interpreter up to the first kernel event.

Run by ``run.py`` as ``python3 perfbench/setup_probe.py <workload>
<seed>``.  It imports the simulator, builds the workload's first
simulation through ``run_single`` (configuration, router construction,
system wiring), dispatches the first kernel event, prints ``ready`` and
exits at once.  The parent times the interval from spawning this
process to reading that line.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main() -> None:
    from repro.experiments import run_single
    from workloads import COMM_DELAY, WORKLOADS

    workload, seed = sys.argv[1], int(sys.argv[2])
    strategy, rate, settings, plan = \
        WORKLOADS[workload].setup_simulation(seed)

    def first_event(system) -> None:
        system.env.step()
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        os._exit(0)

    run_single(strategy, rate, COMM_DELAY, settings=settings,
               fault_plan=plan, instrument=first_event)
    sys.exit("the simulation ended without reaching its first event")


if __name__ == "__main__":
    main()
