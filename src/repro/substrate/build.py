"""CLI entry point for the offline substrate build.

``python -m repro.substrate.build --out DIR --citations N`` generates a
deterministic synthetic stream (hierarchy + citations from ``--seed``)
and builds the substrate directory, printing one JSON object with the
manifest digest and the build's own resource footprint (wall time,
``ru_maxrss``, on-disk bytes of the files the build wrote).  The bench
runs this in a subprocess so the reported peak RSS is the build's alone
— the gate is *build RSS < ~4x on-disk size*, which a
whole-corpus-in-memory builder cannot meet at 1M citations.

Also wired as ``make substrate-build``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import List, Optional

from repro.hierarchy.generator import generate_hierarchy, mesh_2008_hierarchy
from repro.substrate.builder import SubstrateBuilder
from repro.substrate.synth import SynthSpec, synthetic_background, synthetic_chunks

__all__ = ["main"]


def _build_bytes(path: str) -> int:
    """Bytes of the build in ``path``: its manifest and the files it lists.

    Files an earlier build left in the directory are not counted.
    """
    with open(os.path.join(path, "manifest.json")) as handle:
        names = list(json.load(handle)["files"]) + ["manifest.json"]
    return sum(os.path.getsize(os.path.join(path, name)) for name in names)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; prints the build report as JSON and returns 0."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.substrate.build",
        description="Build a synthetic MEDLINE-scale substrate directory.",
    )
    parser.add_argument("--out", required=True, help="target directory")
    parser.add_argument(
        "--citations", type=int, default=1_000_000, help="stream length"
    )
    parser.add_argument("--seed", type=int, default=0, help="stream seed")
    parser.add_argument(
        "--mean-concepts",
        type=float,
        default=24.0,
        help="average association-row length",
    )
    parser.add_argument(
        "--hierarchy-size",
        type=int,
        default=0,
        help="synthetic hierarchy size; 0 = the paper-scale MeSH preset (~48k)",
    )
    args = parser.parse_args(argv)

    started = time.perf_counter()
    if args.hierarchy_size > 0:
        hierarchy = generate_hierarchy(target_size=args.hierarchy_size, seed=args.seed)
    else:
        hierarchy = mesh_2008_hierarchy()
    spec = SynthSpec(
        citations=args.citations,
        num_concepts=len(hierarchy),
        mean_concepts=args.mean_concepts,
        seed=args.seed,
    )
    builder = SubstrateBuilder(args.out, num_concepts=len(hierarchy))
    manifest = builder.build(
        synthetic_chunks(spec),
        hierarchy=hierarchy,
        background=synthetic_background(len(hierarchy), seed=args.seed),
        meta={
            "generator": "repro.substrate.synth",
            "seed": args.seed,
            "citations": args.citations,
            "mean_concepts": args.mean_concepts,
        },
    )
    elapsed = time.perf_counter() - started
    # Linux reports ru_maxrss in kilobytes.
    max_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    report = {
        "path": manifest.path,
        "digest": manifest.digest,
        "citations": manifest.citations,
        "pairs": manifest.pairs,
        "concepts": manifest.concepts,
        "elapsed_s": round(elapsed, 3),
        "max_rss_bytes": max_rss,
        "disk_bytes": _build_bytes(manifest.path),
    }
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
