"""Posterior summarization: point estimates, intervals, MCSE, fitted surfaces.

Quantiles use linear interpolation between order statistics (numpy's
default, type 7). HPD intervals are contiguous, found by scanning the
shortest window of ceil(level * N) consecutive sorted draws, which keeps
them no wider than the equal-tailed interval. Monte Carlo standard errors
use the consistent batch-means estimator with batch size floor(sqrt(N)).
Both passes over the retained draws work in blocks of at most
``_BLOCK_VALUES`` values, so their working memory does not grow with the
chain: the summaries in blocks of columns over all the draws, the fitted
surface in tiles of sites by at most ``_TILE_DRAWS`` draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import DesignMatrix
from .model import FAMILY, ModelSpec, effect_basis

__all__ = [
    "ParamSummary",
    "FitSummary",
    "check_level",
    "CorrelationHistogram",
    "equal_tailed_interval",
    "hpd_interval",
    "mcse",
    "summarize_chain",
    "summarize_draws",
    "summarize_matrix",
    "fitted_surface",
    "error_norm",
    "effect_correlations",
]


@dataclass(frozen=True)
class ParamSummary:
    mean: float
    eqt_lo: float
    eqt_hi: float
    hpd_lo: float
    hpd_hi: float
    mcse: float


@dataclass(frozen=True)
class FitSummary:
    level: float
    params: dict  # name -> ParamSummary


def check_level(level: float) -> None:
    """Raise a ValueError naming ``level`` unless it lies in (0, 1)."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")


def equal_tailed_interval(draws: np.ndarray, level: float = 0.95):
    """Central interval from the level/2 tail quantiles (type-7)."""
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(draws, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


def hpd_interval(draws: np.ndarray, level: float = 0.95):
    """Shortest contiguous window over the sorted draws.

    The window holds as many order statistics as the equal-tailed interval
    does, so the shortest such window can never be wider than the
    equal-tailed interval (that interval itself contains one candidate).
    """
    lo, hi = _hpd_rows(np.sort(np.asarray(draws, dtype=float))[None, :], level)
    return float(lo[0]), float(hi[0])


def _hpd_rows(x: np.ndarray, level: float):
    """(lo, hi) arrays of ``hpd_interval`` for each row of the row-sorted x."""
    n = x.shape[1]
    alpha = (1.0 - level) / 2.0
    # type-7 quantile positions, 1-based
    h_lo = (n - 1) * alpha + 1
    h_hi = (n - 1) * (1.0 - alpha) + 1
    k = int(np.floor(h_hi)) - int(np.ceil(h_lo)) + 1
    k = min(max(k, 1), n)
    if k >= n:
        return x[:, 0], x[:, -1]
    i = np.argmin(x[:, k - 1 :] - x[:, : n - k + 1], axis=1)
    rows = np.arange(x.shape[0])
    return x[rows, i], x[rows, i + k - 1]


def mcse(draws: np.ndarray) -> float:
    """Batch-means Monte Carlo standard error of the mean.

    Uses batch size b = floor(sqrt(N)) over the first a*b draws with
    a = floor(N/b); rejects chains shorter than 100.
    """
    x = np.asarray(draws, dtype=float)
    n = x.shape[0]
    if n < 100:
        raise ValueError(f"batch-means MCSE needs at least 100 draws, got {n}")
    return float(_mcse_rows(x[None, :])[0])


def _mcse_rows(x: np.ndarray) -> np.ndarray:
    """``mcse`` of each row of x, which has at least 100 columns."""
    n = x.shape[1]
    b = int(np.floor(np.sqrt(n)))
    a = n // b
    batch_means = x[:, : a * b].reshape(x.shape[0], a, b).mean(axis=2)
    center = batch_means.mean(axis=1, keepdims=True)
    asym_var = b * np.sum((batch_means - center) ** 2, axis=1) / (a - 1)
    return np.sqrt(asym_var / (a * b))


# float64 values in one block of a pass over the draws (256 KiB)
_BLOCK_VALUES = 2**15
# draws in one tile of the fitted surface: a product over a tile reads
# only its own draws, so the surface's time grows linearly with the chain
_TILE_DRAWS = 2**10


def _blocks(n_items: int, n_draws: int):
    """Slices of range(n_items), each of max(1, _BLOCK_VALUES // n_draws) items."""
    width = max(1, _BLOCK_VALUES // max(n_draws, 1))
    return [slice(start, start + width) for start in range(0, n_items, width)]


def summarize_matrix(draws: np.ndarray, names, level: float = 0.95) -> FitSummary:
    """Per-parameter summaries of a (draws, params) array, column j names[j].

    The one summarizer: a chain, a chain CSV, pooled chains and a single
    sequence of draws are all summarized here. Raises ValueError for a
    ``level`` outside (0, 1).
    """
    draws = np.asarray(draws, dtype=float)
    return _summarize_columns(draws, range(draws.shape[1]), names, level)


def _summarize_columns(draws: np.ndarray, columns, names, level: float) -> FitSummary:
    """``summarize_matrix`` of ``draws[:, columns]``, without that copy.

    A block of columns at a time is copied into a contiguous (block, draws)
    array, and every statistic is taken along its rows with the same
    arithmetic as for a single sequence: mean and MCSE in draw order, then
    quantiles and HPD window of the rows sorted in place.
    """
    check_level(level)
    n = draws.shape[0]
    if n == 0:
        raise ValueError("cannot summarize an empty draw sequence")
    alpha = (1.0 - level) / 2.0
    # rows: mean, eqt_lo, eqt_hi, hpd_lo, hpd_hi, mcse
    stats = np.zeros((6, len(columns)))
    for block in _blocks(len(columns), n):
        x = draws[:, columns[block]].T.copy()
        stats[0, block] = x.mean(axis=1)
        if n >= 100:
            stats[5, block] = _mcse_rows(x)
        elif n > 1:
            stats[5, block] = np.std(x, axis=1, ddof=1) / np.sqrt(n)
        x.sort(axis=1)
        stats[1:3, block] = np.quantile(x, [alpha, 1.0 - alpha], axis=1)
        stats[3:5, block] = _hpd_rows(x, level)
    params = [ParamSummary(*row) for row in stats.T.tolist()]
    return FitSummary(level=level, params=dict(zip(names, params)))


def summarize_draws(draws: np.ndarray, level: float = 0.95) -> ParamSummary:
    """``summarize_matrix`` of one sequence of draws."""
    return summarize_matrix(np.reshape(draws, (-1, 1)), ["draws"], level).params["draws"]


def summarize_chain(chain, level: float = 0.95, include_effects: bool = True) -> FitSummary:
    """Per-parameter posterior mean, equal-tailed and HPD intervals, MCSE.

    Depends only on the retained draws, so any thinning that preserves the
    retained set leaves the summary unchanged. ``summarize_matrix`` of the
    chain's array, without the effect columns unless ``include_effects``.
    """
    if chain.n_draws == 0:
        raise ValueError("cannot summarize an empty chain")
    keep = [
        j
        for j, name in enumerate(chain.names)
        if include_effects or not name.startswith("effect.")
    ]
    return _summarize_columns(chain.matrix(), keep, [chain.names[j] for j in keep], level)


def fitted_surface(chain, spec: ModelSpec, X: DesignMatrix, basis) -> np.ndarray:
    """Posterior mean of g^{-1}(eta) over the retained draws.

    eta is built for a tile of sites by at most ``_TILE_DRAWS`` draws at a
    time, of at most ``_BLOCK_VALUES`` values, and the mean is summed over
    the tiles of draws. Memory beyond the inputs is O(_BLOCK_VALUES) and
    time is linear in the number of draws. A fitted value may differ in the
    last bit from that of one product over all sites and draws.
    """
    eb = effect_basis(spec, basis)
    mean = FAMILY[spec.family].mean
    draws = chain.draws
    betas = draws["beta"].T
    effects = draws["effects"].T if "effects" in draws else None
    log_offset = None if spec.offset is None else np.log(spec.offset)
    tile = max(1, min(chain.n_draws, _TILE_DRAWS))
    out = np.zeros(X.n)
    for start in range(0, chain.n_draws, tile):
        cols = slice(start, start + tile)
        for rows in _blocks(X.n, tile):
            eta = X.X[rows] @ betas[:, cols]  # (sites, draws)
            if effects is not None:
                tile_effects = effects[:, cols]
                eta = eta + (tile_effects[rows] if eb.B is None else eb.B[rows] @ tile_effects)
            if log_offset is not None:
                eta = eta + log_offset[rows, None]
            out[rows] += mean(eta).sum(axis=1)
    return out / chain.n_draws


def error_norm(fitted: np.ndarray, truth: np.ndarray) -> float:
    """Euclidean distance between the true and fitted surfaces."""
    fitted = np.asarray(fitted, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if fitted.shape != truth.shape:
        raise ValueError(f"shape mismatch: fitted {fitted.shape}, truth {truth.shape}")
    return float(np.linalg.norm(truth - fitted))


@dataclass(frozen=True)
class CorrelationHistogram:
    """Binned pairwise posterior correlations among the random effects."""

    counts: np.ndarray
    bin_edges: np.ndarray
    correlations: np.ndarray
    n_pairs_total: int
    excluded: tuple

    @property
    def n_pairs_used(self) -> int:
        return self.correlations.shape[0]


def effect_correlations(
    chain,
    bins: int = 50,
    max_pairs: int = 100_000,
    subsample_size: int = 10_000,
    seed: int = 0,
) -> CorrelationHistogram:
    """Histogram of pairwise sample correlations of the effect draws.

    If the number of pairs exceeds ``max_pairs``, a seeded uniform subsample
    of ``subsample_size`` pairs is used. Zero-variance effects are excluded
    and reported.
    """
    effects = chain.draws.get("effects")
    if effects is None:
        raise ValueError("chain has no random effects")
    d, k = effects.shape
    if k < 2:
        raise ValueError("need at least 2 effects for pairwise correlations")
    if d < 100:
        raise ValueError(f"need at least 100 draws, got {d}")

    sd = effects.std(axis=0)
    keep = np.nonzero(sd > 0)[0]
    excluded = tuple(int(i) for i in np.nonzero(sd == 0)[0])
    k_eff = keep.shape[0]
    if k_eff < 2:
        raise ValueError("fewer than 2 effects have positive variance")

    n_pairs_total = k_eff * (k_eff - 1) // 2
    if n_pairs_total <= max_pairs:
        corr = np.corrcoef(effects[:, keep].T)
        iu = np.triu_indices(k_eff, 1)
        correlations = corr[iu]
    else:
        centered = effects[:, keep] - effects[:, keep].mean(axis=0)
        scaled = centered / centered.std(axis=0)
        rng = np.random.default_rng(seed)
        ii = rng.integers(0, k_eff, size=2 * subsample_size)
        jj = rng.integers(0, k_eff, size=2 * subsample_size)
        ok = ii != jj
        ii, jj = ii[ok][:subsample_size], jj[ok][:subsample_size]
        correlations = (scaled[:, ii] * scaled[:, jj]).mean(axis=0)

    counts, bin_edges = np.histogram(correlations, bins=bins, range=(-1.0, 1.0))
    return CorrelationHistogram(
        counts=counts,
        bin_edges=bin_edges,
        correlations=correlations,
        n_pairs_total=n_pairs_total,
        excluded=excluded,
    )
