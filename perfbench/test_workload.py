"""Tests of the benchmark's workload generator.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Each test module run builds two 100k-citation substrates (a few seconds
each), the size every workload uses.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workload import (  # noqa: E402
    COLD_ROUNDS,
    SPECS,
    TARGET_DEPTH,
    TARGET_MIN_HITS,
    Substrate,
    make_script,
    script_bytes,
    stratum_counts,
)

SEEDS = (1, 2)


@pytest.fixture(scope="module")
def substrates(tmp_path_factory: pytest.TempPathFactory) -> dict:
    sizes = {spec.citations for spec in SPECS.values()}
    assert len(sizes) == 1, "every workload builds the same corpus size"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    built = {}
    for seed in SEEDS:
        out = tmp_path_factory.mktemp("substrate-%d" % seed)
        subprocess.run(
            [
                sys.executable, "-m", "repro.substrate.build",
                "--out", str(out), "--citations", str(sizes.copy().pop()),
                "--seed", str(seed),
            ],
            env=env, check=True, stdout=subprocess.DEVNULL,
        )
        built[seed] = Substrate(str(out))
    return built


@pytest.mark.parametrize("name", sorted(SPECS))
def test_same_seed_gives_byte_identical_script(substrates: dict, name: str) -> None:
    spec = SPECS[name]
    first = script_bytes(make_script(spec, substrates[1], 1))
    again = script_bytes(make_script(spec, Substrate(substrates[1].path), 1))
    assert first == again


@pytest.mark.parametrize("name", sorted(SPECS))
def test_seeds_share_strata_and_size_histogram(substrates: dict, name: str) -> None:
    spec = SPECS[name]
    scripts = [make_script(spec, substrates[seed], seed) for seed in SEEDS]
    assert scripts[0]["timed"] != scripts[1]["timed"]
    edges = sorted({edge for band in spec.bands for edge in band})
    for part in ("warmup", "timed"):
        counts = [stratum_counts(script[part]) for script in scripts]
        assert counts[0] == counts[1]
        histograms = [
            np.histogram([s["result_size"] for s in script[part]], bins=edges)[0].tolist()
            for script in scripts
        ]
        assert histograms[0] == histograms[1]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_targets_lie_inside_the_result(substrates: dict, name: str) -> None:
    sub = substrates[1]
    script = make_script(SPECS[name], sub, 1)
    for session in script["warmup"] + script["timed"][:20]:
        ordinals = sub.result_ordinals(session["concepts"])
        assert len(ordinals) == session["result_size"]
        assert sub.concept_hits(ordinals)[session["target"]] >= TARGET_MIN_HITS
        assert sub.depths[session["target"]] == TARGET_DEPTH


def test_cold_queries_are_all_distinct(substrates: dict) -> None:
    spec = SPECS["cold_paper"]
    script = make_script(spec, substrates[1], 1)
    queries = [tuple(s["concepts"]) for s in script["warmup"] + script["timed"]]
    assert len(queries) == len(set(queries)) == 1 + COLD_ROUNDS * len(spec.bands)


def test_fleet_never_seen_queries_stay_unseen(substrates: dict) -> None:
    spec = SPECS["fleet_churn"]
    script = make_script(spec, substrates[1], 1)
    universe = {tuple(s["concepts"]) for s in script["warmup"]}
    novel = [tuple(s["concepts"]) for s in script["timed"] if s["novel"]]
    assert len(novel) == len(script["timed"]) // spec.novel_every
    assert len(set(novel)) == len(novel)
    assert not universe & set(novel)
