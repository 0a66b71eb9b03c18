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


def test_registry_spec_round_trip_preserves_cache_key():
    """A machine rebuilt from its serialized spec keys identically."""
    import json as json_module

    from repro.machine import MachineSpec, default_specs

    program = kernel3_inner_product()
    for spec in default_specs():
        rebuilt = MachineSpec.from_json(
            json_module.loads(json_module.dumps(spec.to_json()))
        )
        assert cache_key(program, spec.build()) == cache_key(
            program, rebuilt.build()
        )


def test_registry_machines_key_like_hand_built_equivalents():
    """The spec fast path in canonical_machine matches the attribute
    walk: a registry machine and a structurally identical Machine built
    without a spec produce the same cache key."""
    from repro.machine import Machine, build_machine, table1_units

    program = kernel3_inner_product()
    registry = build_machine("cydra5", load_latency=5)
    hand_built = Machine("cydra5-load5", table1_units(5))
    assert hand_built.spec is None  # exercises the attribute walk
    assert cache_key(program, registry) == cache_key(program, hand_built)


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
