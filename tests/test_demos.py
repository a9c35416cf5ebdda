"""The demos' printed stories match the event log they replay."""

import contextlib
import io
import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_single_path_story_prints_one_based_positions():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / "single_path_story.py"), run_name="__main__")
    lines = out.getvalue().splitlines()
    # the path starts at caps (14, .5, .5, .5): the 14.0 company, at
    # position 1, splits at t = 0
    assert lines[1].split(None, 3)[3].startswith("company 1 splits")
