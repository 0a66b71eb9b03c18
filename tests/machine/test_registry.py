"""The declarative machine registry (repro.machine.registry)."""

import pytest

from repro.experiments import measure_loop
from repro.machine import (
    Machine,
    MachineParamError,
    UnknownMachineError,
    build_machine,
    cydra5,
    default_machines,
    get_family,
    machine_from_cli,
    machine_names,
    parse_machine_arg,
    table1_units,
)
from repro.service.keys import machine_digest
from repro.workloads import paper_corpus

#: machine_digest(cydra5()) since the pre-registry era.  Pinned: cache
#: keys for the default target must never drift across refactors.
CYDRA5_DIGEST = "52d171dcf85e4411f9bd076846fc42ba612125b27111107e8004f5eabfbe8efa"


def test_registry_lists_every_target():
    assert machine_names() == ("cydra5", "vliw-wide", "clustered", "simd", "gpu")
    assert [m.wire["name"] for m in default_machines()] == list(machine_names())


def test_cydra5_spec_matches_hand_built_machine():
    registry = build_machine("cydra5")
    legacy = Machine("cydra5-load13", table1_units(13))
    assert registry.name == legacy.name
    assert machine_digest(registry) == machine_digest(legacy)
    assert machine_digest(registry) == CYDRA5_DIGEST
    assert machine_digest(cydra5()) == CYDRA5_DIGEST


def test_cydra5_constructor_goes_through_registry():
    machine = cydra5(load_latency=7)
    assert machine.name == "cydra5-load7"
    assert machine.wire == {"name": "cydra5", "load_latency": 7}


@pytest.mark.parametrize(
    "machine", default_machines(), ids=lambda m: m.wire["name"]
)
def test_wire_round_trip_rebuilds_the_same_machine(machine):
    from repro.server.protocol import parse_machine

    rebuilt = parse_machine(machine.wire)
    assert rebuilt.name == machine.name
    assert rebuilt.wire == machine.wire
    assert machine_digest(rebuilt) == machine_digest(machine)


def test_default_machines_have_distinct_digests():
    digests = {machine_digest(m) for m in default_machines()}
    assert len(digests) == len(machine_names())


@pytest.mark.parametrize("machine", default_machines(), ids=lambda m: m.name)
def test_every_target_schedules_a_loop(machine):
    metrics = measure_loop(paper_corpus(2)[0], machine)
    assert metrics.success
    assert metrics.ii >= metrics.mii >= 1


def test_parse_machine_arg():
    assert parse_machine_arg("cydra5") == ("cydra5", {})
    assert parse_machine_arg("simd:depth=3,lanes=4") == (
        "simd",
        {"depth": 3, "lanes": 4},
    )
    with pytest.raises(UnknownMachineError) as excinfo:
        parse_machine_arg("tms320")
    for name in machine_names():
        assert name in str(excinfo.value)
    with pytest.raises(MachineParamError):
        parse_machine_arg("simd:depth")  # missing =v
    with pytest.raises(MachineParamError):
        parse_machine_arg("simd:depth=deep")  # not an integer


def test_param_validation():
    with pytest.raises(MachineParamError, match=r"issue must be in 1\.\.8"):
        build_machine("vliw-wide", issue=0)
    with pytest.raises(MachineParamError, match="must be an integer"):
        build_machine("cydra5", load_latency=True)
    with pytest.raises(MachineParamError, match="unknown parameter"):
        build_machine("cydra5", cores=2)
    with pytest.raises(UnknownMachineError):
        get_family("tms320")


def test_machine_from_cli_load_latency_folding():
    # --load-latency folds in when the family has the knob...
    assert machine_from_cli("cydra5", load_latency=7).name == "cydra5-load7"
    # ...but never overrides an explicit spec parameter...
    assert (
        machine_from_cli("cydra5:load_latency=3", load_latency=7).name
        == "cydra5-load3"
    )
    # ...and family defaults win when no flag is given.
    assert machine_from_cli("gpu").name == "gpu-o4-load64"
    assert machine_from_cli("vliw-wide:issue=4").name == "vliw-wide-x4-load13"


def test_vliw_wide_is_issue_times_wider():
    base = build_machine("cydra5")
    wide = build_machine("vliw-wide", issue=3)
    assert [u.name for u in wide.unit_classes] == [
        u.name for u in base.unit_classes
    ]
    assert [u.count for u in wide.unit_classes] == [
        u.count * 3 for u in base.unit_classes
    ]


def test_wider_machine_never_hurts_resmii():
    """2x issue width can only lower (or keep) the resource bound."""
    from repro.bounds import resmii
    from repro.frontend import compile_loop

    base = build_machine("cydra5")
    wide = build_machine("vliw-wide")
    for program in paper_corpus(6):
        loop = compile_loop(program)
        assert resmii(loop, wide) <= resmii(loop, base)
