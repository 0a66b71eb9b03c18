"""Shared corpus, target and cached measurements for the bench_*.py suite.

Every ``bench_*.py`` script imports its corpus, its machine and
:func:`publish` from here.  The corpus defaults to 300 loops for quick
runs; set ``REPRO_CORPUS=1525`` to reproduce at the paper's full scale.
:func:`measured` caches one corpus run per algorithm, so the figure
benchmarks, which need both schedulers' results, do not pay for
re-measuring what an earlier benchmark already produced.  Timing and
per-layer span breakdowns belong to the pipeline benchmark
(``benchmarks/pipeline/``).
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

from repro.experiments import LoopMetrics, run_corpus
from repro.machine import cydra5
from repro.workloads import default_corpus_size, paper_corpus

_MACHINE = cydra5()
_CORPUS_CACHE: Dict[int, list] = {}
_METRICS_CACHE: Dict[Tuple[int, str], List[LoopMetrics]] = {}

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def corpus_size() -> int:
    return default_corpus_size(300)


def corpus(size: int = None):
    size = size or corpus_size()
    if size not in _CORPUS_CACHE:
        _CORPUS_CACHE[size] = paper_corpus(size)
    return _CORPUS_CACHE[size]


def machine():
    return _MACHINE


def measured(algorithm: str) -> List[LoopMetrics]:
    """The corpus's metrics under ``algorithm`` with the driver's default
    options, run once per corpus size and algorithm."""
    key = (corpus_size(), algorithm)
    if key not in _METRICS_CACHE:
        _METRICS_CACHE[key] = run_corpus(corpus(), _MACHINE, algorithm=algorithm)
    return _METRICS_CACHE[key]


def publish(name: str, text: str) -> None:
    """Print an artifact and persist it under benchmarks/out/."""
    print()
    print(text)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{name}.txt"), "w") as handle:
        handle.write(text + "\n")
