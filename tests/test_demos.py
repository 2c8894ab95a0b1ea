"""Each demo's stdout, byte for byte: the demos call the public API, so a
changed byte means a changed value, witness or format."""

import hashlib
import io
import runpy
from contextlib import redirect_stdout
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# sha256 of each demo's stdout
PINNED_DEMOS = {
    "comb_family_gap.py": "ed267c5ee911878fd8f412370b10aca8d7e267a2cb18d1cd5ddacb0cf64f7bf5",
    "excursion_trees.py": "6da93a5afdfa63e51553dece164035920ee41c5b8cbd6f7252e5d91a721d009f",
    "gp_equals_half_box.py": "04fbad9d44a03570bab95901111169da72cd42b933378ddb045a966017b8008f",
    "spaces_and_prohorov.py": "03c0122432be548471c0be10010837fd54edf3ed49ae7a58140adf7a00311311",
}


def test_every_demo_is_pinned():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(PINNED_DEMOS)


@pytest.mark.parametrize("name", sorted(PINNED_DEMOS))
def test_demo_stdout_is_pinned(name):
    out = io.StringIO()
    with redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == PINNED_DEMOS[name]
