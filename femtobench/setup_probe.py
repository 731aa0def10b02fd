"""Time one femtosim set-up in this fresh interpreter and print the seconds.

Set-up is what ``femtosim run`` does before its experiment starts: import the
package and CLI, then build and validate the configuration from key=value
overrides (the arguments).  ``run.py`` starts this once per sample, because
an interpreter imports each module only once.
"""

import time

_t0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import femtosim.cli  # noqa: E402,F401
from femtosim.config import ExperimentConfig, apply_overrides  # noqa: E402

apply_overrides(ExperimentConfig(), sys.argv[1:]).validate()
print(time.perf_counter() - _t0)
