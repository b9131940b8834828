"""A fitted recommender compiled to dense-id form.

A :class:`CompiledModel` is the serving- and persistence-ready form of a
ranked rule list: every body a tuple of :class:`SymbolTable` ids, the
inverted postings (symbol id → rank-ascending rule positions) prebuilt,
and the always-matching (empty-body) positions extracted.  It is what
:class:`~repro.core.rule_index.RuleMatchIndex` wraps for serving, what
:class:`~repro.core.miner.ProfitMiner` hands to its recommender straight
out of the pruning pass (reusing the miner's interning, so fitting never
interns the same body twice), and what ``model_io`` format v2 writes to
disk — loading an artifact restores the postings verbatim and the first
recommendation runs without any re-interning.

Matching is exact: the differential property tests
(``tests/property/test_compiled_differential.py``) require the same
:class:`~repro.core.rules.ScoredRule` objects as the naive linear scan
for random rule sets and baskets.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.engine.kernel import HAVE_NUMPY
from repro.core.engine.symbols import SymbolTable
from repro.core.rules import ScoredRule
from repro.core.sales import Sale

# Eager on purpose, and on the serving path: `matching_indices` uses
# `np.bincount` on models of >= _DENSE_MATCH_MIN_RULES rules, and numpy
# costs only ~0.1 s of `repro serve`'s start-up.  Optional "dense" extra;
# without it matching falls back to the dict loop.
try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the numpy-free leg
    np = None  # type: ignore[assignment]

__all__ = ["CompiledModel"]

#: Below this many rules the per-call ``bincount`` allocation costs more
#: than the dict-counting loop it replaces; above it the vectorized
#: gather wins.  Purely a performance threshold — both paths return the
#: same positions.
_DENSE_MATCH_MIN_RULES = 512


class CompiledModel:
    """Ranked rules, default rule and inverted postings in dense-id form.

    Parameters
    ----------
    symbols:
        The symbol table the ids refer to.
    ranked_rules:
        The rule list in MPF rank order (position = rank).
    body_ids:
        Per-rank body id tuples (``()`` for the default rule), aligned
        with ``ranked_rules``.
    postings:
        Symbol id → rank-ascending positions of the rules whose body
        contains it.  Derived from ``body_ids`` when omitted; passed
        explicitly by the v2 artifact loader, which persists it.
    always_match:
        Positions of empty-body rules (match every basket).  Derived when
        omitted.
    name:
        Display name carried into serving and persistence.
    """

    __slots__ = (
        "symbols",
        "ranked_rules",
        "postings",
        "always_match",
        "body_sizes",
        "name",
        "store",
        "_body_ids",
        "_sale_ids",
        "_dense_match",
    )

    def __init__(
        self,
        symbols: SymbolTable,
        ranked_rules: Sequence[ScoredRule],
        body_ids: Sequence[tuple[int, ...]],
        postings: dict[int, list[int]] | None = None,
        always_match: Sequence[int] | None = None,
        name: str = "MPF",
    ) -> None:
        self.symbols = symbols
        self.ranked_rules: Sequence[ScoredRule] = list(ranked_rules)
        self._body_ids: list[tuple[int, ...]] | None = list(body_ids)
        if postings is None:
            postings = {}
            for pos, ids in enumerate(self._body_ids):
                for gid in ids:
                    postings.setdefault(gid, []).append(pos)
        if always_match is None:
            always_match = [
                pos for pos, ids in enumerate(self._body_ids) if not ids
            ]
        self.postings: dict[int, list[int]] = postings
        self.always_match: list[int] = list(always_match)
        self.body_sizes: list[int] = [len(ids) for ids in self._body_ids]
        self.name = name
        # The shape-split columnar twin of this model (built lazily by
        # ``rule_store``; installed at construction by ``from_store``).
        self.store = None
        # Per-model filter of the symbols-level expansion: only ids that
        # occur in some body of *this* model can influence matching.
        self._sale_ids: dict[tuple[str, str], tuple[int, ...]] = {}
        # Lazily built (postings arrays, sizes array) pair for the
        # vectorized all-matches path; None until first use or when the
        # model is too small for it to pay off.
        self._dense_match = None

    @property
    def body_ids(self) -> list[tuple[int, ...]]:
        """Per-rank body id tuples (rebuilt from the store when lazy).

        Models assembled by :meth:`from_store` defer this list — serving
        needs only the postings and body sizes, so a store-backed load
        never materializes per-rule tuples unless a writer (``save_model``
        version 1/2) or the compile path explicitly asks.
        """
        if self._body_ids is None:
            assert self.store is not None
            self._body_ids = self.store.all_body_ids()
        return self._body_ids

    # ------------------------------------------------------------------
    @classmethod
    def compile(
        cls,
        ranked_rules: Sequence[ScoredRule],
        symbols: SymbolTable,
        name: str = "MPF",
        body_ids_by_order: Mapping[int, tuple[int, ...]] | None = None,
    ) -> "CompiledModel":
        """Compile a rank-ordered rule list against ``symbols``.

        ``body_ids_by_order`` is the miner's rule-order → body-ids mapping
        (:attr:`~repro.core.mining.MiningResult.body_ids_by_order`); rules
        found in it reuse the mining-time interning instead of re-hashing
        their GSale bodies.
        """
        if body_ids_by_order is None:
            body_ids_by_order = {}
        intern = symbols.intern_body
        body_ids = [
            ids
            if (ids := body_ids_by_order.get(scored.rule.order)) is not None
            else intern(scored.rule.body)
            for scored in ranked_rules
        ]
        return cls(symbols, ranked_rules, body_ids, name=name)

    @classmethod
    def from_store(cls, store, name: str | None = None) -> "CompiledModel":
        """Assemble a serving-ready model over a columnar rule store.

        The ranked rules are the store's lazy
        :class:`~repro.core.rulestore.RankedView` — nothing is
        materialized here; postings, body sizes and the always-match
        positions come straight from the columns, so a format-v3 load
        reaches the first recommendation without building a single
        per-rule Python object beyond the one the probe touches.
        """
        model = cls.__new__(cls)
        model.symbols = store.symbols
        model.ranked_rules = store.view
        model._body_ids = None
        model.postings = store.global_postings()
        model.always_match = store.default_ranks()
        model.body_sizes = store.body_sizes()
        model.name = name or store.name
        model.store = store
        model._sale_ids = {}
        model._dense_match = None
        return model

    @property
    def rule_store(self):
        """The shape-split columnar twin (:class:`~repro.core.rulestore.RuleStore`).

        Built once on demand for models compiled in-process; models loaded
        from a v3 artifact carry theirs from construction.
        """
        if self.store is None:
            from repro.core.rulestore import RuleStore

            self.store = RuleStore.from_compiled(self)
        return self.store

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_rules(self) -> int:
        """Number of compiled rules (including always-matching ones)."""
        return len(self.ranked_rules)

    @property
    def n_indexed_gsales(self) -> int:
        """Number of distinct symbols across all rule bodies."""
        return len(self.postings)

    @property
    def n_postings(self) -> int:
        """Total inverted-index size: Σ over symbols of |rules containing it|."""
        return sum(len(p) for p in self.postings.values())

    # ------------------------------------------------------------------
    # Basket preparation
    # ------------------------------------------------------------------
    def candidate_ids(self, basket: Sequence[Sale]) -> list[int]:
        """Ids of the basket's generalizations that occur in rule bodies.

        Deduplicated (a generalized sale reachable from two sales counts
        once) but unordered — matching counts per-rule occurrences, so
        candidate order never affects which rule wins.  Symbols occurring
        in no body are dropped at the per-sale cache: they cannot
        influence matching.
        """
        sale_ids = self._sale_ids
        gathered: list[int] = []
        for sale in basket:
            key = (sale.item_id, sale.promo_code)
            ids = sale_ids.get(key)
            if ids is None:
                postings = self.postings
                ids = tuple(
                    gid for gid in self.symbols.sale_ids(sale) if gid in postings
                )
                sale_ids[key] = ids
            gathered.extend(ids)
        if len(gathered) > 1:
            return list(set(gathered))
        return gathered

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def first_match(self, basket: Sequence[Sale]) -> ScoredRule | None:
        """The highest-ranked rule matching ``basket`` (Definition 6).

        Returns ``None`` only when the rule list has no always-matching
        (empty-body) rule and nothing else matches.
        """
        postings = self.postings
        sizes = self.body_sizes
        always = self.always_match
        best = always[0] if always else len(self.ranked_rules)
        counts: dict[int, int] = {}
        for gid in self.candidate_ids(basket):
            for ridx in postings[gid]:
                if ridx >= best:
                    # Postings are rank-ascending: nothing further in this
                    # list can beat the best full match found so far.
                    break
                count = counts.get(ridx, 0) + 1
                counts[ridx] = count
                if count == sizes[ridx]:
                    best = ridx
        if best == len(self.ranked_rules):
            return None
        return self.ranked_rules[best]

    def matching_indices(self, basket: Sequence[Sale]) -> list[int]:
        """Rank positions of every rule matching ``basket``, ascending.

        On models large enough for it to pay off (and with numpy
        available) the per-rule occurrence counting runs as one
        concatenated-postings ``bincount`` instead of a Python dict loop;
        a rule matches iff its occurrence count equals its body size, so
        both paths select exactly the same positions.
        """
        candidates = self.candidate_ids(basket)
        if (
            HAVE_NUMPY
            and candidates
            and len(self.ranked_rules) >= _DENSE_MATCH_MIN_RULES
        ):
            dense = self._dense_match
            if dense is None:
                dense = (
                    {
                        gid: np.asarray(rows, dtype=np.intp)
                        for gid, rows in self.postings.items()
                    },
                    np.asarray(self.body_sizes, dtype=np.intp),
                )
                self._dense_match = dense
            arrays, sizes_row = dense
            occurrences = np.concatenate(
                [arrays[gid] for gid in candidates]
            )
            counts = np.bincount(occurrences, minlength=len(sizes_row))
            # counts > 0 excludes always-match rules (size 0), which are
            # appended separately, mirroring the dict loop.
            full = np.flatnonzero((counts > 0) & (counts == sizes_row))
            matched = list(self.always_match)
            matched.extend(full.tolist())
            matched.sort()
            return matched
        postings = self.postings
        sizes = self.body_sizes
        counts: dict[int, int] = {}
        matched = list(self.always_match)
        for gid in candidates:
            for ridx in postings[gid]:
                count = counts.get(ridx, 0) + 1
                counts[ridx] = count
                if count == sizes[ridx]:
                    matched.append(ridx)
        matched.sort()
        return matched

    def all_matches(self, basket: Sequence[Sale]) -> list[ScoredRule]:
        """Every matching rule in rank order — the naive filter, compiled."""
        rules = self.ranked_rules
        return [rules[i] for i in self.matching_indices(basket)]
