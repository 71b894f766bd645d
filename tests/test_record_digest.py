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
    "bench-verlet": "256acde2d02f468d3e2e22d449a8f0a2ad4b3bb920460d30d39643e9c29648e9",
    "floor1e-3-ic0-leapfrog": "3f704985e4d6e82b96126b3f20efc9c02b67ddc0ef851462c017784210cc6f09",
    "floor1e-3-ic1-leapfrog": "b21107dcbcb3077cb9e7a8f771e1c1db8643d31e1e1b7f8db4e66cd701db57ec",
    "floor1e-3-ic2-leapfrog": "6509115fa9916d09272bb969de731ce1b7535b9b6387c85454f9659a6ab3c763",
    "floor1e-3-ic3-leapfrog": "b0bcb52279747ab713b2e34231b9c68b39bfc06f024172fc433c8323b78dd578",
    "escape-leapfrog": "1e31029aab7c281eed797b60910378748476da13bc66498cfca76ea9e74ab021",
}


def test_host_independent_digests_are_pinned(capsys):
    tool = _load()
    assert tool.main(["--only", *HOST_INDEPENDENT]) == 0
    lines = capsys.readouterr().out.splitlines()[:-1]  # the total last
    assert lines == [f"{digest}  {name}" for name, digest in HOST_INDEPENDENT.items()]


# The ledger of generated sources at the documented parameters.  A change
# that alters a source updates its hash here.
SOURCES = {
    "factored-block": "71d1f872d6d9d2a24c578e3073c8f581f76852506215e6edb4b4fee202f1618a",
    "force-at": "8064f35ec80fcbad4d33777cc7ba4b62b4e6047a8899fe90cc7399b99578c7df",
    "integrals-eval": "509254d8470b29fce28c1516fff57b422fa699354491d84d58c82231b7a1ef6d",
    "integrals-u": "744a06d009e934d7509525bf2fd18508ffa0a3efacf77b4021b52b3f0b4d6841",
    "run-adaptive": "36ba0d179524560b544611a2b6d71411e9a4844e5dcc11ed8eb1abe0345985bf",
    "run-leapfrog": "d70a9dec38e35e0966dd73711292e5fd9e6ef622667a3c3216e5cb5667807fcd",
    "run-regularized": "6b0f6d4a478176dcc726ed8ca8b2901cd442f59ceb6a8a7339233a07d55d9206",
    "attempt-DP54": "b033306597bc56609e835490c5640ca9a3fbaa494813a69128a956437fc1b44a",
    "attempt-DOP853": "bc1ad42e8eafd4cd4cf40ca095154ea6dc57b6265d009cc592fa6377f3984566",
    "stepper-step": "7ce93bb579578c033edf9d93e43621b854e42ae40bc60f1b606d7e7258a524d1",
    "step-leapfrog": "55d15168527b2c53f49e5e9f7a64831d41b997e69d01ef41e10bf7f81e8eac3f",
}


def test_generated_sources_are_pinned(capsys):
    tool = _load()
    assert tool.main(["--sources"]) == 0
    lines = capsys.readouterr().out.splitlines()[:-1]  # the total last
    assert lines == [f"{digest}  {name}" for name, digest in SOURCES.items()]
