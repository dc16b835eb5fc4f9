"""Plug-in asymptotic variances and stationary-bootstrap confidence intervals.

The eigenvalue estimator admits a martingale-difference influence
function, so its asymptotic variance is a plain second moment; the
entropy estimator's influence function is serially correlated and gets a
Newey-West long-run variance. The stationary bootstrap resamples blocks
of transition pairs with geometric lengths and circular wraparound.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np


def influence_stack(
    rho: np.ndarray,
    m: np.ndarray,
    phi_t: np.ndarray,
    phi_t1: np.ndarray,
    phi_star_t: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Influence-function series of the eigenvalue estimator, and its plug-in variance.

    psi_t = phi*(X_t) m_t phi(X_{t+1}) - rho phi*(X_t) phi(X_t), from the
    sample values phi(X_t), phi(X_{t+1}) and phi*(X_t) of eigenfunctions
    under the unit-norm / unit-inner-product normalization. Its sample
    mean is zero by the eigenvalue first-order condition, and the plug-in
    variance of rho-hat is mean(psi^2)/n. Broadcasts over leading axes:
    with (R,) eigenvalues and (R, n) sample series it gives the (R, n)
    series and (R,) variances mean(psi^2) of R fits.
    """
    m = np.asarray(m, dtype=float)
    psi = phi_star_t * m * phi_t1 - np.asarray(rho)[..., None] * phi_star_t * phi_t
    return psi, np.mean(psi**2, axis=-1)


def default_bandwidth(n: int) -> int:
    """Newey-West bandwidth ceil(4 (n/100)^(2/9))."""
    return math.ceil(4.0 * (n / 100.0) ** (2.0 / 9.0))


def _newey_west(psi: np.ndarray, bandwidth: int) -> float:
    """Bartlett-kernel long-run variance of a (mean-zero) series."""
    n = psi.size
    psi = psi - psi.mean()
    v = float(psi @ psi) / n
    for lag in range(1, bandwidth + 1):
        w = 1.0 - lag / (bandwidth + 1.0)
        v += 2.0 * w * float(psi[lag:] @ psi[:-lag]) / n
    return v


def variance_entropy(psi_rho: np.ndarray, rho: float, m: np.ndarray, bandwidth: int) -> float:
    """Long-run variance of the permanent-component entropy estimator.

    The entropy influence function combines the eigenvalue's influence
    series psi_rho with the centered log SDF: psi_L = psi_rho / rho -
    (log m - mean log m). Because the log-SDF term is serially correlated,
    the variance is a Bartlett-kernel long-run variance at the given
    bandwidth (bandwidth 0 degenerates to the sample variance).
    """
    m = np.asarray(m, dtype=float)
    n = psi_rho.size
    if bandwidth < 0:
        raise ValueError("bandwidth must be >= 0")
    if bandwidth >= n:
        raise ValueError(f"bandwidth {bandwidth} must be below n={n}")
    psi_lm = np.log(m) - np.mean(np.log(m))
    psi_L = psi_rho / rho - psi_lm
    return max(_newey_west(psi_L, bandwidth), 0.0)


_MASK32 = 0xFFFFFFFF
# the hash constants of numpy's SeedSequence: A mixes entropy into the
# pool, B draws the state words from it
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose ``generate_state(4, np.uint64)`` words are given.

    ``PCG64`` reads those four words from its seed sequence and nothing else.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _hashmix(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of uint32 words under hash constant ``const``, and the next constant."""
    following = const * mult & _MASK32
    value = (value ^ np.uint32(const)) * np.uint32(following)
    return value ^ value >> np.uint32(16), following


def _replicate_rngs(seed: int, keys) -> list[np.random.Generator]:
    """Substream generators of the replicates that the (N, K) integer ``keys`` name.

    Row j's generator is ``default_rng(SeedSequence(entropy=seed,
    spawn_key=keys[j]))`` bit for bit, so each replicate's draws do not
    depend on execution order, but the N seed sequences are formed in one
    vectorized uint32 pass. ``SeedSequence(seed).pool`` is the state of
    the seed's own mixing; with w 32-bit seed words it has advanced the
    hash constant 16 + 4 max(0, w - 4) steps (4 to fill the pool, 12 to
    mix its words pairwise, 4 for each seed word past the fourth). A key
    is mixed in after the seed, and a zero pad of the seed to 4 words
    hashes as the pool's empty slots do. Each key word is then mixed
    into each of the 4 pool words, and the pool yields the 4 uint64 words
    that seed each ``PCG64``. Every key word must lie in [0, 2**32): a
    larger one is two words of a SeedSequence key.
    """
    seed = operator.index(seed)
    words = np.asarray(keys)
    if (words.ndim != 2 or words.dtype.kind not in "iu"
            or np.any(words < 0) or np.any(words > _MASK32)):
        raise ValueError("keys must be an (N, K) array of integers in [0, 2**32)")
    pool = np.tile(np.random.SeedSequence(seed).pool, (len(words), 1))
    w = max(1, -(-seed.bit_length() // 32))
    const = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, w - 4), 1 << 32) & _MASK32
    for word in words.astype(np.uint32).T:
        for dst in range(4):
            value, const = _hashmix(word, const, _MULT_A)
            mixed = _MIX_MULT_L * pool[:, dst] - _MIX_MULT_R * value
            pool[:, dst] = mixed ^ mixed >> np.uint32(16)
    state = np.empty((len(words), 8), dtype=np.uint32)
    const = _INIT_B
    for i in range(8):
        state[:, i], const = _hashmix(pool[:, i % 4], const, _MULT_B)
    seeds = state.astype("<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_SeedWords(row))) for row in seeds]


def _block_counts(n: int, expected_block: float, seed: int, rows: range) -> np.ndarray:
    """The (R, n) stationary-bootstrap count rows of replicates ``rows``.

    Replicate r's generator, keyed by (r,) (:func:`_replicate_rngs`),
    draws n uniforms, of which those below 1/expected_block restart a
    block (the first draw always does), and then one uniform start on
    {0..n-1} per block. A block continues i+1 modulo n until the next
    restart, so its length is the distance to the next head, and row j
    counts how often each of the n transition pairs falls in one of
    replicate j's blocks. The blocks are summed as +1/-1 steps of an
    (R, n + 1) difference array, a block that wraps past n adding a
    second run from column 0, and one cumulative sum runs over the whole
    flat array: each row's steps net to zero within its own n + 1 slots,
    so no row carries into the next. The counts are integers, so they do
    not depend on the order of the sums.
    """
    R = len(rows)
    u = np.empty((R, n))
    gens = _replicate_rngs(seed, np.array(rows)[:, None])
    for g, row in zip(gens, u):
        g.random(out=row)
    restart = u < 1.0 / expected_block
    restart[:, 0] = True
    starts = np.concatenate([
        g.integers(0, n, size=size) for g, size in zip(gens, np.count_nonzero(restart, axis=1))
    ])
    heads = np.flatnonzero(restart)
    # every row begins with a head, so a row's last block ends where the next row begins
    length = np.diff(heads, append=R * n)
    base = heads // n * (n + 1)
    end = starts + length
    wrap = end > n
    up = np.concatenate([base + starts, base[wrap]])
    down = np.concatenate([base + np.minimum(end, n), base[wrap] + end[wrap] - n])
    step = np.zeros(R * (n + 1), dtype=np.intp)
    np.add.at(step, up, 1)
    np.subtract.at(step, down, 1)
    return np.cumsum(step).reshape(R, n + 1)[:, :n]


#: replicates handed to the statistic at once; bounds the (block x n)
#: count matrix and the statistic's per-block stacks
BOOTSTRAP_BLOCK = 128
#: optional entry of a statistic's output: per-replicate discard reasons
#: ("" where the replicate is kept)
DISCARD_REASON = "discard_reason"


class BootstrapUnstableError(RuntimeError):
    """More than half of the bootstrap replications failed."""


@dataclass
class BootstrapResult:
    """Percentile confidence intervals from a stationary bootstrap.

    ``discard_reasons`` counts the discarded replicates by the reason the
    statistic gave; "non_finite" where it gave none.
    """

    replicates: dict[str, np.ndarray]
    ci_lo: dict[str, float]
    ci_hi: dict[str, float]
    discarded: int
    b_total: int = 0
    discard_reasons: dict[str, int] = field(default_factory=dict)


def bootstrap_ci(
    statistic: Callable[[np.ndarray], Mapping[str, np.ndarray]],
    n: int,
    b: int,
    expected_block: float,
    level: float,
    seed: int,
) -> BootstrapResult:
    """Stationary-bootstrap percentile intervals for a statistic of n transition pairs.

    Replicate r draws its blocks from a substream keyed by (seed, r), so
    the result does not depend on execution order (see
    :func:`_block_counts`). The draws are turned into count rows, row r
    holding how often each of the ``n`` transition pairs was drawn, and
    handed to ``statistic(counts)`` in blocks of BOOTSTRAP_BLOCK rows. The
    statistic returns one array per scalar, with one entry per row; a
    non-finite entry discards that replicate, and an optional
    DISCARD_REASON array says why. Exceptions raised by the
    statistic propagate. Errors out when more than half the replications
    are discarded.
    """
    if b < 1:
        raise ValueError("need at least one replication")
    if not 0 < level < 1:
        raise ValueError("level must lie in (0, 1)")
    if expected_block < 1:
        raise ValueError("expected_block must be >= 1")
    values: dict[str, list[np.ndarray]] = {}
    reasons: list[np.ndarray] = []
    for lo in range(0, b, BOOTSTRAP_BLOCK):
        rows = range(lo, min(lo + BOOTSTRAP_BLOCK, b))
        out = dict(statistic(_block_counts(n, expected_block, seed, rows)))
        why = out.pop(DISCARD_REASON, None)
        reasons.append(np.full(len(rows), "", dtype=object) if why is None
                       else np.asarray(why, dtype=object))
        for key, v in out.items():
            arr = np.asarray(v, dtype=float)
            if arr.shape != (len(rows),):
                raise ValueError(
                    f"statistic returned shape {arr.shape} for {key!r}; expected ({len(rows)},)"
                )
            values.setdefault(key, []).append(arr)
    values = {key: np.concatenate(v) for key, v in sorted(values.items())}
    kept = np.ones(b, dtype=bool)
    for arr in values.values():
        kept &= np.isfinite(arr)
    discarded = int(b - kept.sum())
    dropped = np.concatenate(reasons)[~kept]
    dropped[dropped == ""] = "non_finite"
    discard_reasons = dict(sorted(Counter(dropped.tolist()).items()))
    if discarded > b / 2:
        raise BootstrapUnstableError(
            f"bootstrap unstable: {discarded}/{b} replications failed ({discard_reasons})"
        )
    replicates = {key: arr[kept] for key, arr in values.items()}
    alpha = (1.0 - level) / 2.0
    ci_lo = {}
    ci_hi = {}
    for k, arr in replicates.items():
        lo, hi = np.quantile(arr, [alpha, 1.0 - alpha])
        ci_lo[k], ci_hi[k] = float(lo), float(hi)
    return BootstrapResult(
        replicates=replicates,
        ci_lo=ci_lo,
        ci_hi=ci_hi,
        discarded=discarded,
        b_total=b,
        discard_reasons=discard_reasons,
    )
