"""Loads the benchmark probe into serving processes that ask for it.

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
entry that has one; the benchmark puts this directory on the serving
processes' ``PYTHONPATH`` only for traced or slowed runs.
"""

import os

if os.environ.get("PERFBENCH_PROBE_DIR") or os.environ.get("PERFBENCH_INJECT"):
    import lantern_probe

    lantern_probe.install_from_environment()
