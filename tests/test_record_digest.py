"""tools/record_digest.py: the bit-identity digests are deterministic."""

import importlib.util
import pathlib
import re

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "record_digest.py"


def _load():
    spec = importlib.util.spec_from_file_location("record_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_is_deterministic_on_one_run(capsys):
    tool = _load()
    outputs = []
    for argv in (["--only", "escape-adaptive"], ["--only", "escape-adaptive"],
                 ["--only", "escape-adaptive", "--omit", "force_evals"]):
        assert tool.main(argv) == 0
        outputs.append(capsys.readouterr().out.splitlines())
    first, again, omitted = outputs
    assert first == again
    assert [line.split()[1] for line in first] == ["escape-adaptive", "total"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.split()[0]) for line in first)
    # the outcome fields are part of the digest
    assert omitted[0] != first[0]
