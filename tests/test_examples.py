"""Every script under examples/ runs to its end.

The examples build ``Testbed`` the way a reader would copy it, so an
assembly change that breaks a spelling they use fails here rather than
in the reader's terminal.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("script", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out  # each one reports what it ran
