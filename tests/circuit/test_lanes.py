"""The provenance stamp's backend names, and what they cost a process.

Every sweep runs on the big-int path.  ``repro.circuit.lanes`` keeps
only the two names the benchmark's provenance stamp reads; neither may
import numpy, and neither may the small cells a matrix job runs.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


class TestResolution:
    def test_small_cells_never_import_numpy(self):
        """The stamp's names, a scenario cell and a corruption cell on a
        small circuit."""
        code = (
            "import sys\n"
            "from repro.circuit.lanes import default_lanes, numpy_available\n"
            "from repro.metrics.task import corruption_cell_task\n"
            "from repro.runner import task_worker\n"
            "from repro.scenarios.matrix import scenario_cell_task\n"
            "print(default_lanes(), isinstance(numpy_available(), bool))\n"
            "specs = (\n"
            "    scenario_cell_task('sarlock', {'key_size': 4}, 'sat', {},\n"
            "                       'sharded', 'c432', 0.12, 0, 1),\n"
            "    corruption_cell_task('sarlock', {'key_size': 4}, 'c432',\n"
            "                         0.12, 0, 1, metrics=('corruption',\n"
            "                         'bit_flip', 'avalanche', 'subspace')),\n"
            ")\n"
            "for spec in specs:\n"
            "    task_worker(spec.kind)(spec.worker_params)\n"
            "print('numpy' in sys.modules)\n"
        )
        env = {
            key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        env["PYTHONPATH"] = str(SRC_DIR)
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.split("\n")[:2] == ["python True", "False"]
