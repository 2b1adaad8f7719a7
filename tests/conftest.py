import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import bianchi

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")


@pytest.fixture
def run_optimized():
    """Run a script under python -O against this checkout; its stdout lines.

    The script should print one "name: message" line per invariant it
    trips: an explicit raise survives -O where an assert would not.
    """
    def run(script: str) -> list[str]:
        env = {"PYTHONPATH": str(Path(bianchi.__file__).parents[1]), "PYTHONHASHSEED": "0",
               "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run([sys.executable, "-O", "-c",
                               "import sys\nassert sys.flags.optimize == 1\n" + script],
                              env=env, capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout.decode().splitlines()

    return run
