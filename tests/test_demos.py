"""Every demo runs to the end in-process, so an argument a demo passes cannot
be removed from the package unnoticed."""

import runpy

import pytest

from helpers import CONFIG_DIR

DEMOS = sorted((CONFIG_DIR.parent / "demos").glob("*.py"))


def test_the_four_demos_are_found():
    assert [path.name[:2] for path in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(capsys, path):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
