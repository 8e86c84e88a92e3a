"""Each example's stdout, pinned byte for byte.

The examples are deterministic (seeded RNG streams, simulated time), so
a change that moves one of these files changes what the example shows.
Regenerate a pin only from a commit whose output is known good:
``PYTHONPATH=src python examples/NAME.py > tests/example_pins/NAME.txt``.
"""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).resolve().parent / "example_pins"


@pytest.mark.parametrize(
    "name", ["operator_observer", "flow_monitor", "rtt_tomography", "quickstart"]
)
def test_example_stdout_is_pinned(name, capsys):
    runpy.run_path(str(ROOT / "examples" / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out == (PINS / f"{name}.txt").read_text()
