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


# Lines that do not depend on the host: the fixed-step Verlet runs call no
# libm pow (the adaptive step controller does), and their details hold no
# CPython error text (overflow-1e90-leapfrog's does, from math.fsum).
HOST_INDEPENDENT = {
    "bench-verlet": "eeb3c869f38ad0f0f1533b2dc472234bbc6250838ab11c8c55b23348fe32042a",
    "floor1e-3-ic0-leapfrog": "93839703c0e14bd1f8647d22ec0c21df9c10808e86f156e0e560eab37f702e5c",
    "floor1e-3-ic1-leapfrog": "b21107dcbcb3077cb9e7a8f771e1c1db8643d31e1e1b7f8db4e66cd701db57ec",
    "floor1e-3-ic2-leapfrog": "fd55eaf0492229b3236613914ed72442c1f52661f0f4e1db33eb13938b69b338",
    "floor1e-3-ic3-leapfrog": "d9b431f2d8a4b180064c88af7bf4b732a1688f8de42517f780aa7e47cc5224f1",
    "escape-leapfrog": "636452061b0f4a0f3fa30ada882be4da6a817c125471fd06dc91c6f3e8a780ed",
}


def test_host_independent_digests_are_pinned(capsys):
    tool = _load()
    assert tool.main(["--only", *HOST_INDEPENDENT]) == 0
    lines = capsys.readouterr().out.splitlines()[:-1]  # the total last
    assert lines == [f"{digest}  {name}" for name, digest in HOST_INDEPENDENT.items()]
