"""Cache-key stability and sensitivity (repro.service.keys)."""

import dataclasses
import json
import re

from repro.core import SchedulerOptions
from repro.machine import cydra5
from repro.service.keys import (
    cache_key,
    canonical_program,
    canonical_request,
    request_json,
)
from repro.workloads import named_kernels
from repro.workloads.livermore import kernel3_inner_product
from tests.conftest import run_python

MACHINE = cydra5()


def test_key_shape_and_determinism():
    program = kernel3_inner_product()
    key = cache_key(program, MACHINE)
    assert re.fullmatch(r"[0-9a-f]{64}", key)
    assert key == cache_key(program, MACHINE)
    # A freshly rebuilt identical program hashes identically too.
    assert key == cache_key(kernel3_inner_product(), MACHINE)


def test_key_covers_every_input():
    program = kernel3_inner_product()
    base = cache_key(program, MACHINE, "slack", None)
    # Program identity.
    renamed = dataclasses.replace(program, name="other")
    assert cache_key(renamed, MACHINE) != base
    retripped = dataclasses.replace(program, trip=program.trip + 1)
    assert cache_key(retripped, MACHINE) != base
    # Machine description.
    assert cache_key(program, cydra5(load_latency=7)) != base
    # Algorithm.
    assert cache_key(program, MACHINE, "cydrome") != base
    # Options: None (driver defaults) is distinct from explicit options.
    assert cache_key(program, MACHINE, "slack", SchedulerOptions()) != base
    assert (
        cache_key(program, MACHINE, "slack", SchedulerOptions(max_attempts=3))
        != cache_key(program, MACHINE, "slack", SchedulerOptions())
    )


def test_distinct_corpus_programs_get_distinct_keys():
    keys = {cache_key(p, MACHINE) for p in named_kernels()}
    assert len(keys) == len(named_kernels())


def test_loop_body_canonicalization(figure1_loop):
    canon = canonical_program(figure1_loop)
    assert canon["kind"] == "loopbody"
    # Canonical form is pure JSON (round-trips) and key-stable.
    assert json.loads(json.dumps(canon, sort_keys=True)) == canon
    assert cache_key(figure1_loop, MACHINE) == cache_key(figure1_loop, MACHINE)


def test_request_json_is_sorted_and_nan_free():
    text = request_json(kernel3_inner_product(), MACHINE)
    payload = json.loads(text)
    assert payload["schema_version"] == canonical_request(
        kernel3_inner_product(), MACHINE
    )["schema_version"]
    # Re-dumping with sorted keys reproduces the exact bytes.
    assert json.dumps(payload, sort_keys=True, separators=(",", ":")) == text


def test_registry_machines_key_like_hand_built_equivalents():
    """A registry machine and a structurally identical hand-built
    Machine produce the same cache key: its wire provenance enters no
    key."""
    from repro.machine import Machine, build_machine, table1_units

    program = kernel3_inner_product()
    registry = build_machine("cydra5", load_latency=5)
    hand_built = Machine("cydra5-load5", table1_units(5))
    assert cache_key(program, registry) == cache_key(program, hand_built)


#: machine_digest of every default registry target, recorded before the
#: registry stopped carrying a second description of each machine.
TARGET_DIGESTS = {
    "cydra5-load13": "52d171dcf85e4411f9bd076846fc42ba612125b27111107e8004f5eabfbe8efa",
    "vliw-wide-x2-load13": "062b2d1099af9449672d5545252f855de54e24db4157f0f8194ec97cc3ffe77f",
    "clustered-x1-load13": "35186c8bc5b15fdec2c6f87fd974b97392427e5086e3dfac03fd06ba605bd857",
    "simd-d2-l2-load12": "cb359c6bf5e44f766ec1b9ec84c9a54ba7b66c57f7be9be731715a60b815ac48",
    "gpu-o4-load64": "12345bfeba670b1939e56971aaf9dfaa1c370c11ec6c50aba79c55111fd36f91",
}

#: SHA-256 of the newline-joined cache keys of paper_corpus(300, 1993)
#: on each default target (targets outer, loops inner).
CORPUS_KEYS_DIGEST = "610d54782d3b5dfc2ca042e7388bb00fe35e156be89341d92320e9b7cd6a64ae"


def test_every_target_keys_as_pinned():
    """Cache keys are a contract with every cache already written: no
    refactor of the machine model may move a digest or a key."""
    import hashlib

    from repro.machine import default_machines
    from repro.service.keys import machine_digest
    from repro.workloads import paper_corpus

    machines = default_machines()
    assert {m.name: machine_digest(m) for m in machines} == TARGET_DIGESTS
    keys = [
        cache_key(program, machine)
        for machine in machines
        for program in paper_corpus(300, 1993)
    ]
    digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()
    assert digest == CORPUS_KEYS_DIGEST


_SUBPROCESS_SCRIPT = """
from repro.machine import cydra5, machine_from_cli
from repro.core import SchedulerOptions
from repro.service.keys import cache_key
from repro.workloads import named_kernels
machines = [cydra5(), machine_from_cli("vliw-wide"),
            machine_from_cli("simd:depth=3"), machine_from_cli("gpu")]
for machine in machines:
    for program in named_kernels()[:3]:
        print(cache_key(program, machine, "slack", SchedulerOptions()))
"""


def _keys_under_hashseed(seed: str):
    return run_python(_SUBPROCESS_SCRIPT, PYTHONHASHSEED=seed)


def test_keys_independent_of_pythonhashseed():
    """Cross-process property: keys are byte-identical under different
    PYTHONHASHSEED values (no reliance on hash()/set/dict order) — for
    the default target and the registry machines alike."""
    first = _keys_under_hashseed("0")
    second = _keys_under_hashseed("4242")
    assert first and first == second


def test_importing_the_library_does_not_load_openssl():
    """``import hashlib`` maps OpenSSL's libcrypto (about 3.6 MB of
    RSS), so only computing a digest may load it: the single-loop CLI
    and the benchmark's workers import ``cache_key`` and never call it."""
    lines = run_python(
        "import sys\n"
        "import repro, repro.obs, repro.service\n"
        "from repro.service import cache_key\n"
        "print('_hashlib' in sys.modules)\n"
        "from repro.machine import cydra5\n"
        "from repro.workloads.livermore import kernel3_inner_product\n"
        "cache_key(kernel3_inner_product(), cydra5())\n"
        "print('_hashlib' in sys.modules)\n"
    )
    assert lines == ["False", "True"]
