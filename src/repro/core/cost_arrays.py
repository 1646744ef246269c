"""Vectorized array substrate for the §IV cost model.

The scalar :class:`~repro.core.probabilities.ProbabilityModel` evaluates
one component at a time with Python loops — fine for a single EXPAND,
but the product p99 driver at MEDLINE scale is exactly that per-EXPAND
evaluation, repeated over every candidate component a cut enumeration
or a relevance ranking touches.  :class:`CostArrays` precomputes, once
per navigation tree, contiguous per-concept arrays in **preorder**:

* ``result_counts`` — ``|L(n)|`` per node;
* ``log_lt`` — the clamped ``log LT(n)`` IDF denominators;
* ``explore_mass`` — the unnormalized EXPLORE weights
  ``|L(n)| / log LT(n)`` (or plain ``|L(n)|`` without IDF);
* ``subtree_begin`` / ``subtree_size`` — the preorder interval indices
  (PR 1's tree indices, lifted into arrays), so every subtree is one
  contiguous slice;
* packed **citation bitmaps** (built lazily on first distinct-count
  use) — one bit per distinct citation of the tree, so distinct-result
  counting over any batch of components is a byte-wise OR plus a
  popcount table lookup, with no Python set unions.

On top of those it exposes batch kernels — :meth:`explore`,
:meth:`expand`, :meth:`distinct_counts`, :meth:`normalized_entropy` —
that evaluate **whole batches of candidate components in one shot**:
components are flattened into one member array plus segment offsets,
sums run as segmented reductions, the EXPAND thresholds become
``np.where`` selections, and the entropy term is a masked ``p·log p``
over the flattened member-count vector.

Equivalence contract (the scalar model stays the reference oracle)
------------------------------------------------------------------

Per-node quantities (``explore_mass``, ``result_counts``, ``log_lt``)
are elementwise and bit-identical to the scalar model, which now derives
its own per-node mass from this substrate.  *Aggregates* — component
EXPLORE sums and entropy terms — legitimately differ from the scalar
loops in the last ulps: numpy's segmented reductions use pairwise
summation, while the scalar oracle accumulates sequentially over sorted
members.  Both orders are deterministic, and the property suite
(``tests/test_cost_arrays.py``) pins the agreement to ≤ 1e-9 relative.
Threshold comparisons (``distinct_count`` against the lower/upper
bounds) are exact integer arithmetic on both sides, so batch and scalar
EXPAND always agree on which branch of the threshold logic applies.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.navigation_tree import NavigationTree

__all__ = ["CostArrays", "segment_sums", "POPCOUNT_TABLE"]

#: Bits set per byte value; ``POPCOUNT_TABLE[packed].sum()`` is the
#: population count of a packed bitmap.
POPCOUNT_TABLE = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1
).sum(axis=1).astype(np.int64)
POPCOUNT_TABLE.setflags(write=False)


def segment_sums(
    values: np.ndarray, offsets: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Per-segment sums of a flattened batch (empty segments sum to 0).

    ``values`` holds every segment back to back; segment ``i`` spans
    ``values[offsets[i] : offsets[i] + lengths[i]]``.  Built on
    ``np.add.reduceat`` over ``values`` plus a zero sentinel: a trailing
    empty segment's offset equals ``len(values)``, which is a valid
    index into the extended array, so no offset ever has to be clamped
    onto the preceding segment's final element (clamping would shift
    that segment's reduction boundary and truncate its sum).  The
    remaining reduceat quirk — an empty segment reports the element *at*
    its offset — is masked out explicitly.
    """
    out = np.zeros(len(offsets), dtype=np.float64)
    if len(values) == 0 or len(offsets) == 0:
        return out
    extended = np.zeros(len(values) + 1, dtype=np.float64)
    extended[: len(values)] = values
    sums = np.add.reduceat(extended, offsets)
    nonempty = lengths > 0
    out[nonempty] = sums[nonempty]
    return out


class CostArrays:
    """Per-tree cost-model arrays plus batched evaluation kernels.

    Built once per navigation tree (the nav-tree pipeline stage carries
    it, content-keyed, so every session of a query shares one instance).
    All kernels take a *batch* of components — any iterable of node-id
    iterables — and return one numpy array with a value per component.

    Attributes:
        tree: the navigation tree the arrays describe.
        preorder_ids: node ids in preorder (``int64``).
        result_counts: ``|L(n)|`` per preorder position (``int64``).
        log_lt: clamped ``log LT(n)`` per preorder position.
        explore_mass: unnormalized EXPLORE weight per preorder position.
        normalizer: the scalar model's EXPLORE normalizer ``Z`` (the
            sequential preorder sum, kept bit-identical to the oracle).
        subtree_begin: preorder position of each node's subtree slice.
        subtree_size: node count of each node's subtree slice.
        upper_threshold: result count above which EXPAND is certain.
        lower_threshold: result count below which EXPAND never happens.
        use_idf: whether ``explore_mass`` carries the IDF discount.
        content_key: deterministic digest of the arrays (40 hex chars),
            shared by every session of the same tree + thresholds.
    """

    def __init__(
        self,
        tree: NavigationTree,
        medline_count: Callable[[int], int],
        upper_threshold: int = 50,
        lower_threshold: int = 10,
        use_idf: bool = True,
    ):
        self.tree = tree
        self.upper_threshold = upper_threshold
        self.lower_threshold = lower_threshold
        self.use_idf = use_idf
        # A corpus store (anything exposing a
        # ``medline_count`` method) is accepted in place of the bare LT
        # callable; one exposing ``medline_counts`` answers every node in
        # one batch lookup instead of a call per node.
        batch = getattr(medline_count, "medline_counts", None)
        bound = getattr(medline_count, "medline_count", None)
        if callable(bound):
            medline_count = bound

        # The tree hands its preorder buffers over whole: positions are
        # 0..k-1, result counts are the results-CSR row lengths.
        self.preorder_ids = np.asarray(tree.preorder_array(), dtype=np.int64)
        preorder: List[int] = self.preorder_ids.tolist()
        k = len(preorder)
        self._position: Dict[int, int] = {
            node: index for index, node in enumerate(preorder)
        }
        self.result_counts = np.diff(
            np.asarray(tree.result_offsets_array(), dtype=np.int64)
        )
        if callable(batch):
            lt = np.maximum(batch(self.preorder_ids), 2).astype(np.float64)
        else:
            lt = np.fromiter(
                (max(2, medline_count(n)) for n in preorder), dtype=np.float64, count=k
            )
        self.log_lt = np.log(lt)
        counts_f = self.result_counts.astype(np.float64)
        if use_idf:
            mass = counts_f / self.log_lt
        else:
            mass = counts_f
        # Empty nodes carry zero mass regardless of the IDF denominator.
        self.explore_mass = np.where(self.result_counts > 0, mass, 0.0)
        # ``|L(n)|·log |L(n)|`` per node (0 for empty nodes): the entropy
        # kernel's precomputed term — see :meth:`normalized_entropy`.
        self._count_log_count = np.where(
            self.result_counts > 0,
            counts_f * np.log(np.maximum(counts_f, 1.0)),
            0.0,
        )

        # The normalizer is accumulated sequentially in preorder — the
        # exact float the scalar oracle computes — so pE values agree to
        # the last bit wherever no other aggregation intervenes.
        total = 0.0
        for value in self.explore_mass.tolist():  # repro: ignore[vectorize]
            total += value
        self.normalizer = total if total > 0 else 1.0

        # Preorder interval indices: the subtree of a node is one
        # contiguous slice of the preorder (PR 1's positional indices).
        self.subtree_begin = np.arange(k, dtype=np.int64)
        self.subtree_size = np.asarray(tree.subtree_size_array(), dtype=np.int64).copy()

        # The packed citation bitmaps back only the distinct-count /
        # EXPAND batch kernels, and at MEDLINE scale they are the one
        # expensive part of the substrate — so they are built lazily on
        # first use (see :attr:`packed_results`).  Callers that only
        # need the per-node arrays (the scalar model derives its mass
        # table here) never pay for them.
        self.universe_size = len(tree.all_results())
        self._packed: "np.ndarray | None" = None

        # The substrate is shared by every session of a query (and, per
        # the ROADMAP, across serving processes): freeze the arrays so
        # any in-place write — which would silently corrupt every other
        # session's solves — raises immediately instead.  The lazy
        # bitmap build freezes its array in :meth:`_build_packed`.
        for array in (
            self.preorder_ids,
            self.result_counts,
            self.log_lt,
            self.explore_mass,
            self._count_log_count,
            self.subtree_begin,
            self.subtree_size,
        ):
            array.setflags(write=False)

        self.content_key = self._compute_key()

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def _compute_key(self) -> str:
        """Digest the arrays and thresholds into a 40-hex content key.

        Citation identity is hashed directly from the per-node sorted
        citation ids (``result_counts``, hashed first, delimits the
        per-node runs) rather than from the packed bitmaps, so keying
        never forces the lazy bitmap build.
        """
        hasher = hashlib.sha256()
        hasher.update(b"cost_arrays\x1e")
        hasher.update(
            ("%d|%d|%d" % (self.upper_threshold, self.lower_threshold, self.use_idf)).encode()
        )
        for array in (self.preorder_ids, self.result_counts, self.log_lt):
            hasher.update(array.tobytes())
        # The results CSR concatenates each node's sorted citations in
        # preorder; ``result_counts``, hashed above, delimits the runs.
        hasher.update(
            np.ascontiguousarray(self.tree.result_values_array(), dtype=np.int64).tobytes()
        )
        return hasher.hexdigest()[:40]

    def __len__(self) -> int:
        return len(self.preorder_ids)

    # ------------------------------------------------------------------
    # Citation bitmaps (lazy)
    # ------------------------------------------------------------------
    @property
    def packed_results(self) -> np.ndarray:
        """Packed citation bitmaps, built on first batch-kernel use.

        Bit ``j`` of row ``i`` is set iff citation ``j`` (in sorted
        citation-id order, so the layout is content-deterministic) is
        attached to preorder node ``i``.  Rows are built in packed form
        directly — one byte per 8 citations, MSB first, matching
        ``np.packbits`` — never materializing the dense ``k × U`` byte
        matrix, whose 8× transient would reach gigabytes at MEDLINE
        scale.
        """
        if self._packed is None:
            self._packed = self._build_packed()
        return self._packed

    def _build_packed(self) -> np.ndarray:
        width = max(1, (self.universe_size + 7) // 8)
        packed = np.zeros((len(self.preorder_ids), width), dtype=np.uint8)
        # One scatter for the whole matrix: universe bit positions by
        # searchsorted over the distinct sorted citations, row index by
        # repeating each preorder position over its CSR run.
        values = np.asarray(self.tree.result_values_array(), dtype=np.int64)
        if values.size:
            universe = np.unique(values)
            bits = np.searchsorted(universe, values)
            rows = np.repeat(
                np.arange(len(self.preorder_ids), dtype=np.int64),
                self.result_counts,
            )
            np.bitwise_or.at(
                packed,
                (rows, bits >> 3),
                np.left_shift(1, 7 - (bits & 7)).astype(np.uint8),
            )
        packed.setflags(write=False)
        return packed

    # ------------------------------------------------------------------
    # Index helpers
    # ------------------------------------------------------------------
    def positions(self, nodes: Iterable[int]) -> np.ndarray:
        """Preorder positions of ``nodes``, in the given order."""
        position = self._position
        return np.fromiter((position[n] for n in nodes), dtype=np.int64)

    def subtree_interval(self, node: int) -> Tuple[int, int]:
        """``(begin, size)`` of the node's contiguous preorder slice."""
        index = self._position[node]
        return int(self.subtree_begin[index]), int(self.subtree_size[index])

    def flatten(
        self, components: Sequence[Iterable[int]]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flatten a batch of components into (positions, offsets, lengths).

        Members are taken in sorted node-id order — the scalar oracle's
        documented accumulation order — so the flattening (and therefore
        every kernel value) depends only on component contents.  One pass
        builds a single flat index list (one array allocation total):
        per-component numpy allocations would dominate the kernels at
        production component sizes.
        """
        position = self._position
        flat_list: List[int] = []
        length_list: List[int] = []
        for component in components:
            members = sorted(component)
            flat_list.extend(position[n] for n in members)
            length_list.append(len(members))
        lengths = np.asarray(length_list, dtype=np.int64)
        offsets = np.zeros(len(length_list), dtype=np.int64)
        if len(length_list) > 1:
            np.cumsum(lengths[:-1], out=offsets[1:])
        flat = np.asarray(flat_list, dtype=np.int64)
        return flat, offsets, lengths

    # ------------------------------------------------------------------
    # EXPLORE kernels
    # ------------------------------------------------------------------
    def explore_mass_sums(self, components: Sequence[Iterable[int]]) -> np.ndarray:
        """Unnormalized EXPLORE mass per component (batch)."""
        flat, offsets, lengths = self.flatten(components)
        return segment_sums(self.explore_mass[flat], offsets, lengths)

    def explore(self, components: Sequence[Iterable[int]]) -> np.ndarray:
        """``pE(I(n))`` per component (batch): mass sums over ``Z``."""
        return self.explore_mass_sums(components) / self.normalizer

    # ------------------------------------------------------------------
    # Distinct-result kernel (exact integers)
    # ------------------------------------------------------------------
    def distinct_counts(self, components: Sequence[Iterable[int]]) -> np.ndarray:
        """Distinct citations per component (batch, exact).

        Byte-wise OR of the members' packed bitmaps per segment, then a
        table popcount — integer arithmetic, so results equal
        ``len(tree.distinct_results(component))`` bit for bit.
        """
        flat, offsets, lengths = self.flatten(components)
        return self._distinct_from_flat(flat, offsets, lengths)

    def _distinct_from_flat(
        self, flat: np.ndarray, offsets: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        out = np.zeros(len(offsets), dtype=np.int64)
        if len(flat) == 0 or len(offsets) == 0:
            return out
        # Zero sentinel row, for the same reason as segment_sums: trailing
        # empty segments sit at offset len(flat), and clamping them onto
        # the previous row would truncate that segment's OR.
        rows = self.packed_results[flat]
        extended = np.zeros((len(flat) + 1, rows.shape[1]), dtype=np.uint8)
        extended[: len(flat)] = rows
        orred = np.bitwise_or.reduceat(extended, offsets, axis=0)
        counts = POPCOUNT_TABLE[orred].sum(axis=1)
        nonempty = lengths > 0
        out[nonempty] = counts[nonempty]
        return out

    # ------------------------------------------------------------------
    # EXPAND kernels
    # ------------------------------------------------------------------
    def normalized_entropy(
        self,
        member_counts: np.ndarray,
        offsets: np.ndarray,
        lengths: np.ndarray,
    ) -> np.ndarray:
        """Normalized entropy per segment of a flattened count batch.

        Mirrors the scalar ``_normalized_entropy``: the distribution is
        each member's ``|L(m)|`` over the segment total, the maximum is
        the uniform/no-duplicate ``log(members)`` (zero-count members
        included in the denominator), and the ratio is clamped to 1.
        Evaluated in the algebraic form ``log T − (Σ c·log c) / T`` —
        two segmented sums instead of a per-member division — which
        agrees with the scalar ``-Σ p·log p`` within the 1e-9 contract.
        """
        counts = member_counts.astype(np.float64)
        clogc = np.where(counts > 0, counts * np.log(np.maximum(counts, 1.0)), 0.0)
        return self._entropy_from_terms(counts, clogc, offsets, lengths)

    def _entropy_from_terms(
        self,
        counts: np.ndarray,
        clogc: np.ndarray,
        offsets: np.ndarray,
        lengths: np.ndarray,
    ) -> np.ndarray:
        totals = segment_sums(counts, offsets, lengths)
        safe_totals = np.where(totals > 0, totals, 1.0)
        entropy = (
            np.log(safe_totals) - segment_sums(clogc, offsets, lengths) / safe_totals
        )
        max_entropy = np.log(np.maximum(lengths, 1).astype(np.float64))
        ratio = np.minimum(1.0, entropy / np.where(max_entropy > 0, max_entropy, 1.0))
        return np.where((totals > 0) & (max_entropy > 0), ratio, 0.0)

    def expand_from_segments(
        self,
        member_counts: np.ndarray,
        offsets: np.ndarray,
        lengths: np.ndarray,
        distinct: np.ndarray,
    ) -> np.ndarray:
        """EXPAND probabilities from raw component statistics (batch).

        The batched counterpart of the scalar
        ``expand_from_distribution``: ``member_counts`` holds every
        component's ``|L(m)|`` histogram back to back, ``distinct`` the
        distinct-citation counts.  Heuristic reduced trees feed their
        supernode histograms through this kernel directly.
        """
        entropy = self.normalized_entropy(member_counts, offsets, lengths)
        return self._apply_thresholds(entropy, lengths, distinct)

    def _apply_thresholds(
        self, entropy: np.ndarray, lengths: np.ndarray, distinct: np.ndarray
    ) -> np.ndarray:
        return np.where(
            lengths <= 1,
            0.0,
            np.where(
                distinct > self.upper_threshold,
                1.0,
                np.where(distinct < self.lower_threshold, 0.0, entropy),
            ),
        )

    def expand(self, components: Sequence[Iterable[int]]) -> np.ndarray:
        """``pX(I(n))`` per component (batch).

        Zero for singletons, one above the upper result-count threshold,
        zero below the lower, normalized entropy in between — the same
        decision tree as the scalar ``expand``, applied as ``np.where``
        selections over the whole batch.  The entropy term reuses the
        precomputed per-node ``|L(n)|·log |L(n)|`` array, so the whole
        evaluation is gathers and segmented reductions.
        """
        flat, offsets, lengths = self.flatten(components)
        distinct = self._distinct_from_flat(flat, offsets, lengths)
        entropy = self._entropy_from_terms(
            self.result_counts[flat].astype(np.float64),
            self._count_log_count[flat],
            offsets,
            lengths,
        )
        return self._apply_thresholds(entropy, lengths, distinct)
