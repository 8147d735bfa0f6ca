"""``scripts/src_lines.py`` sorts every line into one kind, and the kinds add up."""

import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def src_lines():
    spec = importlib.util.spec_from_file_location("_src_lines", _ROOT / "scripts" / "src_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SAMPLE = '''\
"""Module docstring
over two lines."""

import os  # code, though it ends in a comment

# a comment line
X = """a string that is not a docstring
spans two code lines"""


def f():
    """One-line docstring."""

    # another comment line
    return [
        # a comment inside brackets
        os.sep,
    ]
'''


def test_each_line_of_the_sample_has_its_kind(src_lines):
    assert src_lines.count_lines(_SAMPLE) == {"code": 7, "docstring": 3, "comment": 3, "blank": 5}


def test_kinds_add_up_to_the_line_count_of_every_src_file(src_lines):
    for path in sorted((_ROOT / "src").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert sum(src_lines.count_lines(text).values()) == text.count("\n"), path


def test_main_prints_each_file_and_the_total(src_lines, tmp_path, capsys):
    (tmp_path / "a.py").write_text(_SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert src_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["file", "code", "docstring", "comment", "blank", "total"]
    assert [line.split()[1:] for line in lines[1:]] == [
        ["7", "3", "3", "5", "18"], ["1", "0", "0", "1", "2"], ["8", "3", "3", "6", "20"],
    ]
    assert lines[-1].split()[0] == "total"
