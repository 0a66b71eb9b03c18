"""The whole-corpus pin (``tests/core/corpus_pin.py``): the fixture covers
every loop of ``paper_corpus(seed=1993)`` on every registry target, and
a spread of its loops reproduces here.  CI recomputes all of it with
``python -m tests.core.corpus_pin``."""

import json

from repro.machine import machine_names
from repro.workloads import paper_corpus

from tests.core.corpus_pin import FIXTURE, SEED, corpus_hashes, first_difference

#: Every 61st loop: 25 loops, named kernels and generated ones.
STRIDE = 61


def test_fixture_covers_the_corpus_on_every_target():
    pinned = json.loads(FIXTURE.read_text())
    assert list(pinned) == list(machine_names())
    assert {len(hashes) for hashes in pinned.values()} == {len(paper_corpus(seed=SEED))}


def test_a_spread_of_the_corpus_matches_the_pin():
    programs = paper_corpus(seed=SEED)[::STRIDE]
    pinned = {
        target: hashes[::STRIDE] for target, hashes in json.loads(FIXTURE.read_text()).items()
    }
    assert first_difference(pinned, corpus_hashes(programs), programs) is None
