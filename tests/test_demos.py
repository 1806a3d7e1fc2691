"""Each demo's printed output, byte for byte against tests/golden/demos/."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"
GOLDEN = Path(__file__).parent / "golden" / "demos"
NAMES = sorted(path.stem for path in DEMOS.glob("*.py"))


def test_every_demo_has_a_golden_file():
    assert len(NAMES) == 5
    assert NAMES == sorted(path.stem for path in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("name", NAMES)
def test_demo_output_matches_golden(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()
