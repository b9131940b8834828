"""Pessimistic estimation of the non-hit probability (Section 4.2).

The projected profit of a rule multiplies the observed average profit per
hit by a *pessimistic* hit count: out of ``N`` covered transactions with
``E`` observed misses, the upper limit ``U_CF(N, E)`` of the true miss
probability at confidence level ``CF`` is taken from the binomial
confidence-interval construction of Clopper & Pearson (1934), the same
estimate C4.5 uses for pessimistic error-based pruning (Quinlan 1993).  The
expected number of hits is then ``X = N · (1 − U_CF(N, E))``.

The exact Clopper–Pearson upper limit is the solution ``p`` of
``P[Binomial(N, p) ≤ E] = CF``, which equals the ``1 − CF`` quantile of a
``Beta(E + 1, N − E)`` distribution.  C4.5's closed-form special case for
``E = 0`` (``U = 1 − CF^(1/N)``) coincides with the Beta formula; we keep it
as a fast path and as executable documentation.

``CF`` follows C4.5's default of 0.25.
"""

from __future__ import annotations

from functools import lru_cache

# Eager on purpose (~1 s).  Fitting prunes, so a lazy import would only
# move that second from process start into the first timed fit; serving
# never imports this module (`repro.core` exports lazily), so it never
# pays.  scipy ships with the default install; the numpy-free footprint
# (mining + serving on the big-int backend) never reaches the Beta
# quantile below, so the import failure is deferred to first use.
try:
    from scipy import stats
except ImportError:  # pragma: no cover - exercised by the numpy-free leg
    stats = None  # type: ignore[assignment]

from repro.errors import ValidationError

__all__ = ["DEFAULT_CF", "pessimistic_miss_rate", "pessimistic_hits"]

DEFAULT_CF = 0.25


@lru_cache(maxsize=65536)
def pessimistic_miss_rate(n: int, errors: float, cf: float = DEFAULT_CF) -> float:
    """Upper confidence limit ``U_CF(N, E)`` of the miss probability.

    Parameters
    ----------
    n:
        Number of covered transactions (``N > 0``).
    errors:
        Observed misses ``E`` with ``0 ≤ E ≤ N``.  Fractional values are
        accepted (they arise when coverage is weighted) and handled by the
        continuous Beta form.
    cf:
        Confidence level in ``(0, 1)``; smaller is more pessimistic.
        Defaults to C4.5's 0.25.
    """
    if n <= 0:
        raise ValidationError(f"pessimistic estimate needs N > 0, got {n}")
    if not 0 <= errors <= n:
        raise ValidationError(
            f"error count must satisfy 0 <= E <= N, got E={errors}, N={n}"
        )
    if not 0 < cf < 1:
        raise ValidationError(f"confidence level must be in (0, 1), got {cf}")
    if errors >= n:
        return 1.0
    if errors == 0:
        # C4.5 closed form, identical to the Beta(1, N) quantile below.
        return 1.0 - cf ** (1.0 / n)
    if stats is None:
        raise ImportError(
            "pessimistic pruning with fractional/nonzero error counts "
            "needs scipy (the Clopper-Pearson Beta quantile); install the "
            "base dependencies"
        )
    upper = stats.beta.ppf(1.0 - cf, errors + 1.0, n - errors)
    return float(upper)


def pessimistic_hits(n: int, hits: float, cf: float = DEFAULT_CF) -> float:
    """Pessimistic expected hit count ``X = N · (1 − U_CF(N, N − hits))``.

    Returns 0 for an empty coverage, which keeps the projected profit of a
    rule that covers nothing at zero.
    """
    if n <= 0:
        return 0.0
    if not 0 <= hits <= n:
        raise ValidationError(
            f"hit count must satisfy 0 <= hits <= N, got hits={hits}, N={n}"
        )
    return n * (1.0 - pessimistic_miss_rate(n, n - hits, cf))
