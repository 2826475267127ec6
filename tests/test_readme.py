"""The ``python`` examples of README.md run and print what the README says."""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
EXAMPLES = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)


def printed(index: int) -> str:
    """What the README's ``index``-th python example prints, stripped."""
    assert len(EXAMPLES) == 3
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(EXAMPLES[index], str(README), "exec"), {"__name__": "readme_example"})
    return out.getvalue().strip()


def test_obstacle_example_prints_its_solution_and_a_zero_residual():
    assert printed(0) == "[1.5] 0.0"


def test_convolution_example_prints_the_closed_form_value():
    assert abs(float(printed(1)) - 0.5 * math.exp(-0.25)) <= 1e-3


def test_contact_example_passes_its_diagnostics():
    assert printed(2).split()[0] == "True"
