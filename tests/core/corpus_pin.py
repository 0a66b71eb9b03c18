"""The whole paper corpus, pinned on every registry target.

``schedules_corpus.json`` holds, for each target of ``machine_names()``,
one short hash of ``[ii, attempts, placements, ejections, forced,
times]`` (:func:`~tests.core.test_pinned_schedules.schedule_record`)
per loop of ``paper_corpus(seed=1993)``, in corpus order.  The other
pins hold full records for 300 loops on every target and for the 72
large loops on cydra5; this one covers all 1,525 loops everywhere at
about 12 bytes a loop.

Check the fixture, or record it again after a deliberate change::

    PYTHONPATH=src python -m tests.core.corpus_pin
    PYTHONPATH=src python -m tests.core.corpus_pin --write

The check prints the case count, or exits 1 naming the first
(target, loop) whose record differs.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict, List, Optional, Sequence

from repro.machine import build_machine, machine_names
from repro.workloads import paper_corpus

from tests.core.test_pinned_schedules import schedule_record

FIXTURE = pathlib.Path(__file__).with_name("schedules_corpus.json")
SEED = 1993


def record_hash(record: List) -> str:
    """The first 8 hex digits of the record's compact JSON's SHA-256."""
    text = json.dumps(record, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def corpus_hashes(
    programs: Optional[Sequence] = None, targets: Sequence[str] = ()
) -> Dict[str, List[str]]:
    """``{target: [hash per loop, in corpus order]}``; the whole corpus
    on every target by default."""
    programs = paper_corpus(seed=SEED) if programs is None else programs
    hashes: Dict[str, List[str]] = {}
    for target in targets or machine_names():
        machine = build_machine(target)
        hashes[target] = [
            record_hash(schedule_record(program, machine)) for program in programs
        ]
    return hashes


def first_difference(
    expected: Dict[str, List[str]], actual: Dict[str, List[str]], programs: Sequence
) -> Optional[str]:
    """``"<target> <loop>"`` of the first case that differs, or None."""
    if list(expected) != list(actual):
        return f"targets {list(actual)}, pinned {list(expected)}"
    for target, pinned in expected.items():
        now = actual[target]
        if len(now) != len(pinned):
            return f"{target}: {len(now)} loops, pinned {len(pinned)}"
        for program, then, hashed in zip(programs, pinned, now):
            if hashed != then:
                return f"{target} {program.name}"
    return None


def write_fixture(hashes: Dict[str, List[str]]) -> None:
    lines = ",\n".join(
        f"  {json.dumps(target)}: {json.dumps(values, separators=(',', ':'))}"
        for target, values in hashes.items()
    )
    FIXTURE.write_text("{\n" + lines + "\n}\n")


if __name__ == "__main__":
    import sys

    programs = paper_corpus(seed=SEED)
    hashes = corpus_hashes(programs)
    if sys.argv[1:] == ["--write"]:
        write_fixture(hashes)
        print(f"wrote {FIXTURE.name}: {sum(map(len, hashes.values()))} cases")
        sys.exit(0)
    difference = first_difference(json.loads(FIXTURE.read_text()), hashes, programs)
    if difference is not None:
        sys.exit(f"schedule differs from {FIXTURE.name}: {difference}")
    print(f"{sum(map(len, hashes.values()))} (target, loop) cases match {FIXTURE.name}")
