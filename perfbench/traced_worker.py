"""Service worker entry point for the traced ``wire_64x1`` run.

Takes the arguments of ``python -m repro.service``, wraps the worker's
layers (dispatch, remote tick, fleet, core, store, wire codec) with the
benchmark's span tracer, then hands over to
``repro.service.__main__.main``.  When the worker exits it writes its
layer statistics to the JSON file named by ``PERFBENCH_WORKER_STATS``;
``PERFBENCH_WINDOW`` is the number of rounds in the fixed counting window
and ``PERFBENCH_PERIOD_BASE`` the frontend's id of the worker's first round.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import LayerTracer, install_worker  # noqa: E402


def main() -> int:
    tracer = LayerTracer()
    install_worker(
        tracer,
        int(os.environ["PERFBENCH_WINDOW"]),
        int(os.environ["PERFBENCH_PERIOD_BASE"]),
    )
    from repro.service.__main__ import main as service_main

    try:
        return service_main(sys.argv[1:])
    finally:
        tracer.dump(os.environ["PERFBENCH_WORKER_STATS"])


if __name__ == "__main__":
    raise SystemExit(main())
