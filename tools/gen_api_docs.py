"""Generate docs/API.md from the package's docstrings.

Run from the repository root::

    python tools/gen_api_docs.py

Walks every module under ``repro``, collects public classes and functions
(the names each module exports via ``__all__``), and renders their
signatures and docstring summaries into a single Markdown reference.
Keeping the reference generated — not hand-written — means it cannot
drift from the code.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path
from typing import List

import repro

OUTPUT = Path(__file__).resolve().parent.parent / "docs" / "API.md"

# Hand-authored deep-dive appended after the generated per-module
# reference.  Lives here (not in docs/API.md directly) so the byte-equality
# check in tests/test_tools.py keeps covering the whole file.
ENGINE_INTERNALS = """\
## Opt-EdgeCut engine internals

`repro.core.opt_edgecut.OptEdgeCut` is a bitmask engine.  A `CutTree` is
capped at `MAX_OPT_NODES` (16) nodes, so every component the solver ever
sees is a subset of indices `0..15` and is represented as a Python int
bitmask (bit *i* set ⟺ node *i* in the component):

- **Subtree masks** — `__init__` precomputes, bottom-up, the mask of each
  node's full subtree.  The component below a cut edge `(parent, child)`
  is `subtree_mask[child] & component_mask`; the upper component clears
  those bits.  No set algebra, no hashing.
- **Citation bitmaps** — each distinct citation id across the tree gets
  one bit; a component's distinct-result count is the OR of its members'
  bitmaps popcounted (`int.bit_count()`), replacing frozenset unions.
- **Mask-keyed memos** — `solve_component_mask` memoizes `BestCut`s in a
  dict keyed by the component mask, and per-mask EXPLORE/result/member
  statistics are memoized the same way.  The memos live for one solve
  and stay private: their entries are normalized over the whole solved
  tree, so no caller reads them as other components' plans (the pipeline
  cut stage caches plans instead).
- **Lazy pruned search** — instead of materializing the cross-product of
  per-child cut options, `_search_cuts` walks it as a DFS over a cons
  list of undecided subtrees, accumulating a lower bound (expand cost
  plus reveal + lower-component cost per decided edge, in canonical
  order) and abandoning any prefix whose bound already reaches the best
  term.  Because every addend is non-negative and IEEE rounding is
  monotone, the bound never exceeds the true term, so pruning is exact:
  the engine returns bit-identical cuts and expected costs to the
  exhaustive reference (`tests/oracles/opt_edgecut_reference.py`, the
  oracle for the property suite in `tests/test_opt_engine_equivalence.py`).
- **Stars by tables** — a root whose children are all leaves (at most
  `MAX_STAR_LEAVES`, 9) skips the search: the solver builds the
  EXPLORE mass, distinct count and member count of every upper
  component (root plus a leaf subset) as numpy tables, then solves the
  subsets a popcount layer at a time against all their cuts at once,
  accumulating each term in the search's order and keeping its first
  minimum, so its `BestCut` is bit-identical too.

The enumeration order matches the legacy engine (per child: cut edge
first, then the child's own cuts, empty cut last; earlier children vary
slowest) and ties break to the first minimum, so tie-broken cuts and
golden tests are unaffected.  `benchmarks/bench_opt_engine.py` holds the
speedup floor (≥3× on a 12-node exact solve) and emits
`BENCH_opt_engine.json`.
"""

SERVING_HTTP = """\
## Serving runtime and HTTP observability

`repro.serving.ServingRuntime` is the thread-safe facade the web layer
mounts (see DESIGN.md "Serving runtime" for the threading model).  Its
two observability surfaces are served by `repro.web.app.BioNavWebApp`
without passing through the admission gate, so they answer even when
every slot is taken:

### `GET /api/health`

| field            | meaning                                              |
|------------------|------------------------------------------------------|
| `status`         | `ok`, or `overloaded` when the admission queue is full |
| `workers`        | admission slots (requests run at once, each on its caller's thread) |
| `queue_depth`    | admitted requests currently waiting for a slot       |
| `queue_capacity` | admission-queue bound; beyond it requests are shed   |
| `in_flight`      | requests currently running                           |
| `sessions_active`| live navigation sessions in the registry             |
| `solver`         | canonical registry name of the serving solver        |
| `results_page_size` | citations per SHOWRESULTS page (serving config)   |
| `uptime_seconds` | seconds since the runtime was constructed            |

### `GET /api/stats`

Every counter and latency series of the process lives in one
`repro.obs.Metrics` registry, which the runtime hands to its stage
cache, session registry, dispatcher and sessions.  The answer is that
registry's snapshot plus live gauges (cache sizes and capacities, queue
depth, in-flight requests, live sessions), rendered once by
`repro.serving.runtime.render_stats`:

- `pipeline` — per-stage cache/latency counters from the staged
  navigation pipeline (DESIGN.md §10): for each of `results`,
  `nav_tree`, and `cut`, the stage's `hits` / `misses` / `coalesced` /
  `evictions` / `size` / `capacity` / `hit_ratio`, `builds`, and
  build-latency aggregates (`build_seconds_total`, `build_ms_avg`,
  `build_ms_max`, read from the stage's build-latency histogram).  `coalesced` counts requests that
  waited on another thread's in-progress build instead of duplicating
  it.
- `sessions` — `active`, `capacity`, `created`, `evicted`, and
  `expired_lookups` (requests that named an evicted session and were
  answered `410 Gone` / `session_expired`).
- `serving` — `workers`, `queue_depth`, `queue_capacity`, `in_flight`,
  `admitted`, `completed`, and `shed.overload` / `shed.deadline` /
  `shed.total` (requests rejected `503` with a `Retry-After` hint).
- `queries` — the cached navigation trees, `query` and `tree_size`.
- `solver` — per-EXPAND decision time: `expands`, `total_ms`,
  `mean_ms`, `p50_ms`, `p95_ms`, `p99_ms`, `max_ms` and
  `mean_reduced_size`.  The quantiles come from a fixed log-bucket
  histogram (4 buckets per power of two from 1 µs to ~134 s) and read
  the upper bound of the bucket holding the nearest-rank value, so they
  never read lower than the exact value and at most ~19% higher; the
  histogram's memory does not grow with the number of EXPANDs.

Shed responses use HTTP 503 with `Retry-After` (derived from the
configured queueing deadline); requests naming an evicted session get
HTTP 410 with `error_code: "session_expired"` (distinct from 404
`not_found` for ids that never existed).
`benchmarks/bench_serving.py` load-tests the runtime (1 → 4 worker
scaling, zero shed, zero lost sessions) and emits `BENCH_serving.json`.
"""

CLUSTER_HTTP = """\
## Cluster mode: merged observability surfaces

`python -m repro.web --cluster N` mounts
`repro.cluster.BioNavCluster` — N worker processes, each hosting a
full `ServingRuntime`, sharing stage artifacts through the file-backed
L2 store (DESIGN.md §13) — behind the same web app, which duck-types
the runtime surface.  Session ids gain a routing prefix
(`w<index>g<generation>-s…`); sessions owned by a crashed-and-respawned
worker answer `410 Gone` with the re-search hint.  A new session goes
to the next worker in round-robin order.  The two
observability endpoints merge the fleet:

### `GET /api/health` (cluster)

The router admits each request through one gate per worker (one
request in flight per worker, at most `max_queue` waiting, the rest
shed `503`).  Top level keeps the single-process fields (`status` —
`degraded` when any shard is unreachable or `overloaded` — `queue_depth`
summed over the gates, `sessions_active`, `results_page_size`,
`uptime_seconds`) and adds:

| field     | meaning                                                   |
|-----------|-----------------------------------------------------------|
| `cluster` | `size`, `crashes` (respawns over the fleet's lifetime) |
| `shards`  | one row per worker: `name`, `generation`, `alive`, `respawns`, `queue_depth` (its gate's waiting requests), `status` (`ok`, `overloaded` while its gate queue is full, or `unreachable`), and the worker's own `health` answer with its gate's `workers` / `queue_depth` / `queue_capacity` / `in_flight` |

### `GET /api/stats` (cluster)

Each worker answers with its raw registry snapshot and gauges.  The
router merges the snapshots, and its gates' counters, by addition
(`repro.obs.merge`: counters and histogram buckets add, the maximum is
the largest maximum), sums the gauges, and renders the result with the
same `render_stats` a single process uses.  Fleet counts, ratios and quantiles are therefore
exact arithmetic over every worker's events, and the fleet quantiles
are bucket upper bounds like the single-process ones.

- `pipeline`, `sessions`, `solver` — the single-process blocks,
  fleet-wide.
- `serving` — the router gates': `admitted`, `completed` and `shed.*`
  count each request once, and `workers` / `queue_depth` /
  `queue_capacity` / `in_flight` are the gates' readings summed.
- `l2` — the shared store, fleet-wide: `hits` / `misses` / `publishes`
  (each stage lookup counted once, however often a waiting worker polls
  the directory), `hit_ratio`, `evictions` / `errors`, and one
  `entries` / `bytes` census (every worker sees one directory).
- `cluster` — `size`, `crashes`, and fleet-wide `shed_total`.
- `workers` — each worker's own rendering, with its gate, for
  drill-down, with `name` / `generation` / `alive` / `respawns` /
  `queue_depth` (its gate's).

`benchmarks/bench_cluster.py` load-tests the fleet (CPU-bound 1 → 4
process scaling, zero shed/lost, stage-row-verified cross-worker L2 hit)
and emits `BENCH_cluster.json`.
"""


def iter_module_names() -> List[str]:
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue
        names.append(info.name)
    return sorted(names)


def first_paragraph(doc: str) -> str:
    lines: List[str] = []
    for line in doc.strip().splitlines():
        if not line.strip():
            break
        lines.append(line.strip())
    return " ".join(lines)


def describe_callable(name: str, obj) -> List[str]:
    try:
        signature = str(inspect.signature(obj))
    except (TypeError, ValueError):
        signature = "(...)"
    doc = inspect.getdoc(obj) or ""
    summary = first_paragraph(doc) if doc else "(undocumented)"
    return ["- **`%s%s`** — %s" % (name, signature, summary)]


def describe_class(name: str, cls) -> List[str]:
    doc = inspect.getdoc(cls) or ""
    summary = first_paragraph(doc) if doc else "(undocumented)"
    lines = ["- **`%s`** — %s" % (name, summary)]
    for method_name, method in sorted(vars(cls).items()):
        if method_name.startswith("_"):
            continue
        if isinstance(method, (staticmethod, classmethod)):
            method = method.__func__
        if not callable(method):
            continue
        method_doc = inspect.getdoc(method) or ""
        if not method_doc:
            continue
        try:
            signature = str(inspect.signature(method))
        except (TypeError, ValueError):
            signature = "(...)"
        lines.append(
            "  - `%s%s` — %s" % (method_name, signature, first_paragraph(method_doc))
        )
    return lines


def render() -> str:
    out: List[str] = [
        "# API reference",
        "",
        "_Generated by `python tools/gen_api_docs.py` — do not edit by hand._",
        "",
    ]
    for module_name in iter_module_names():
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", None)
        if not exported:
            continue
        out.append("## `%s`" % module_name)
        out.append("")
        module_doc = inspect.getdoc(module)
        if module_doc:
            out.append(first_paragraph(module_doc))
            out.append("")
        for name in exported:
            obj = getattr(module, name, None)
            if obj is None:
                continue
            # Skip re-exports documented in their home module.
            home = getattr(obj, "__module__", module_name)
            if home != module_name and home.startswith("repro."):
                continue
            if inspect.isclass(obj):
                out.extend(describe_class(name, obj))
            elif callable(obj):
                out.extend(describe_callable(name, obj))
            else:
                out.append("- **`%s`** — constant" % name)
        out.append("")
    out.append(ENGINE_INTERNALS)
    out.append("")
    out.append(SERVING_HTTP)
    out.append(CLUSTER_HTTP)
    return "\n".join(out)


def main() -> int:
    OUTPUT.parent.mkdir(exist_ok=True)
    text = render()
    OUTPUT.write_text(text)
    print("wrote %s (%d lines)" % (OUTPUT, len(text.splitlines())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
