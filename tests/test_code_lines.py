"""tools/code_lines.py: which lines of a module count as code."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# each line that counts ends in "# code"; the trailing comments of the
# others say why they do not count, except on the docstrings' own lines
FIXTURE = '''\
"""Module docstring,
over two lines."""
# a comment line

import math  # code


class Box:  # code
    r"""Class docstring."""

    size = 3  # code

    def area(self):  # code
        """Function
        docstring."""
        text = """a string  # code
that is not a docstring"""  # code
        return (self.size  # code
                * 2)  # code


async def wait():  # code
    """Async docstring."""
    return math.pi  # code
'''


def _load():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixture_counts_only_its_code_lines(tmp_path):
    tool = _load()
    expect = sum(line.endswith("# code") for line in FIXTURE.splitlines())
    assert expect == 10
    assert tool.code_lines(FIXTURE) == expect
    (tmp_path / "fixture.py").write_text(FIXTURE)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n')
    assert tool.count(tmp_path) == {"empty.py": 0, "fixture.py": expect}


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    tool = _load()
    (tmp_path / "fixture.py").write_text(FIXTURE)
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "    10  fixture.py\n    10  total\n"
