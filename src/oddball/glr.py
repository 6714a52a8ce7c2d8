"""Sequential statistics and the modified generalized likelihood ratio.

Observations arrive one slot at a time: the sampler picks a process and
records its Poisson event count for that slot. Everything the test needs
is carried by per-process visit counts N_j, per-process event totals Y_j,
and the grand total Y.

For the hypothesis "process i is the odd one", two log-likelihood scores
are formed over the rate nuisance parameters (odd rate, common rate), with
the slot-factorial term dropped (it is common to every hypothesis and
cancels in all pairwise comparisons):

* averaged_log_likelihood: likelihood integrated against independent unit
  exponential priors on the two rates. The integral is a product of two
  gamma integrals with the closed form

      log[Gamma(Y_i + 1) / (N_i + 1)^(Y_i + 1)]
      + log[Gamma(Y - Y_i + 1) / (n - N_i + 1)^(Y - Y_i + 1)].

* ml_log_likelihood: likelihood maximized over the two rates, giving

      Y_j (log(Y_j / N_j) - 1) + (Y - Y_j) (log((Y - Y_j) / (n - N_j)) - 1)

  with zero-count terms equal to 0 (the supremum over a vanishing rate).

`_scores` is the one definition of both scores; every caller reads them
from it. The modified GLR statistic of hypothesis i against j is

    Z_ij = averaged_log_likelihood(i) - ml_log_likelihood(j),

and Z_i = min over j != i of Z_ij. Averaging in the numerator (rather
than maximizing) is what makes the statistic a supermartingale under the
wrong hypothesis and yields Z_ij + Z_ji <= 0; consequently at most one
process can hold a positive score, which is what makes thresholding sound.
"""

from __future__ import annotations

import math

from .numerics import DomainError, _FrozenRecord, _Record, _require_int, _require_list

__all__ = [
    "SufficientStats",
    "GlrState",
    "averaged_log_likelihood",
    "ml_log_likelihood",
    "modified_glr",
]


class SufficientStats(_Record):
    """Visit and event tallies over K processes. Single-writer, mutable.

    Invariants (exact, integers): sum(visits) == n, sum(events) == total.
    With neither visits nor events given, both start as K zeros.
    """

    _fields = ("k", "n", "visits", "events", "total")

    def __init__(
        self,
        k: int,
        n: int = 0,
        visits: list[int] | None = None,
        events: list[int] | None = None,
        total: int = 0,
    ):
        _require_int(k, "k", 3)
        if not visits and not events:
            visits, events = [0] * k, [0] * k
        if len(visits or ()) != k or len(events or ()) != k:
            raise DomainError("visits and events must each have one entry per process")
        for v in visits:
            _require_int(v, "visits entry", 0)
        for e in events:
            _require_int(e, "events entry", 0)
        _require_int(n, "n", 0)
        _require_int(total, "total", 0)
        if any(v == 0 and e > 0 for v, e in zip(visits, events)):
            raise DomainError("a process with zero visits cannot have events")
        if sum(visits) != n:
            raise DomainError("visits must sum to n")
        if sum(events) != total:
            raise DomainError("events must sum to total")
        self.k, self.n, self.visits, self.events, self.total = k, n, visits, events, total

    @classmethod
    def from_counts(cls, visits, events) -> "SufficientStats":
        visits = [_require_int(v, "visits entry", 0) for v in _require_list(visits, "visits")]
        events = [_require_int(e, "events entry", 0) for e in _require_list(events, "events")]
        return cls(k=len(visits), n=sum(visits), visits=visits, events=events, total=sum(events))

    def update(self, action: int, count: int) -> "SufficientStats":
        """Record one slot: process `action` observed with `count` events."""
        _require_int(action, "action", 1, self.k)
        _require_int(count, "count", 0)
        self._record(action, count)
        return self

    def _record(self, action: int, count: int) -> None:
        """`update` without validation, for counts drawn from a generator."""
        self.n += 1
        self.visits[action - 1] += 1
        self.events[action - 1] += count
        self.total += count

    def copy(self) -> "SufficientStats":
        return SufficientStats(
            k=self.k, n=self.n, visits=list(self.visits), events=list(self.events), total=self.total
        )

    def theta_hat(self, i: int) -> tuple[float, float]:
        """ML rate estimates under hypothesis i: (odd rate, common rate).

        0/0 cells return the sentinel 0.0 (callers treat nonpositive
        estimates as unusable and fall back to uniform sampling).
        """
        yi = self.events[i - 1]
        ni = self.visits[i - 1]
        yo = self.total - yi
        no = self.n - ni
        t1 = yi / ni if ni > 0 else 0.0
        t2 = yo / no if no > 0 else 0.0
        return t1, t2


class GlrState(_FrozenRecord):
    """One slot's worth of test state, equal only to itself.

    z:      K x K matrix of pairwise scores Z_ij (diagonal unused, 0.0).
    z_min:  Z_i = min over j != i of Z_ij.
    theta:  K x 2 matrix of per-hypothesis ML rate estimates (0.0 sentinel
            where the defining ratio is 0/0).
    leader: 1-based argmax of z_min; exact-value ties are broken uniformly
            at random from the caller's stream.
    """

    _fields = ("n", "z", "z_min", "theta", "leader")
    __eq__ = object.__eq__
    __hash__ = object.__hash__


def _check_hypothesis(stats: SufficientStats, i: int, caller: str) -> None:
    if stats.n < 1:
        raise DomainError(f"{caller} requires at least one observed slot")
    _require_int(i, "hypothesis index", 1, stats.k)


def averaged_log_likelihood(stats: SufficientStats, i: int) -> float:
    """Prior-averaged log-likelihood that process i is the odd one."""
    _check_hypothesis(stats, i, "averaged_log_likelihood")
    return _scores(stats)[0][i - 1]


def ml_log_likelihood(stats: SufficientStats, j: int) -> float:
    """Rate-maximized log-likelihood that process j is the odd one.

    Zero event totals contribute 0 (the supremum is attained as the
    corresponding rate vanishes), including the never-visited case.
    """
    _check_hypothesis(stats, j, "ml_log_likelihood")
    return _scores(stats)[1][j - 1]


def _scores(stats: SufficientStats) -> tuple[list[float], list[float]]:
    """Both per-hypothesis scores, O(K): the one definition of each, read by
    the public score functions, the full-state builder and the policy's
    slot loop."""
    lgamma = math.lgamma
    log = math.log
    n = stats.n
    total = stats.total
    avg = [0.0] * stats.k
    ml = [0.0] * stats.k
    for idx in range(stats.k):
        yi = stats.events[idx]
        ni = stats.visits[idx]
        yo = total - yi
        no = n - ni
        avg[idx] = (
            lgamma(yi + 1) - (yi + 1) * log(ni + 1) + lgamma(yo + 1) - (yo + 1) * log(no + 1)
        )
        t = 0.0
        if yi > 0:
            t += yi * (log(yi / ni) - 1.0)
        if yo > 0:
            t += yo * (log(yo / no) - 1.0)
        ml[idx] = t
    return avg, ml


def _z_min_from_scores(avg: list[float], ml: list[float]) -> list[float]:
    """Z_i = avg_i - max_{j != i} ml_j via the top two of ml."""
    m1 = -math.inf
    m2 = -math.inf
    a1 = -1
    for idx, v in enumerate(ml):
        if v > m1:
            m2 = m1
            m1 = v
            a1 = idx
        elif v > m2:
            m2 = v
    return [avg[idx] - (m2 if idx == a1 else m1) for idx in range(len(ml))]


def _pick_leader(z_min: list[float], rng) -> int:
    """1-based argmax with exact-value ties broken uniformly from rng.

    Consumes one draw only when there is a tie, so identically seeded
    replays consume the stream identically.
    """
    best = max(z_min)
    tied = [idx for idx, v in enumerate(z_min) if v == best]
    if len(tied) == 1:
        return tied[0] + 1
    return tied[int(rng.integers(len(tied)))] + 1


def modified_glr(stats: SufficientStats, rng) -> GlrState:
    """Full test state after stats.n slots: pairwise matrix, row minima,
    per-hypothesis rate estimates, and the current leader."""
    import numpy as np

    if stats.n < 1:
        raise DomainError("modified_glr requires at least one observed slot")
    k = stats.k
    avg, ml = _scores(stats)
    z = np.subtract.outer(avg, ml)
    np.fill_diagonal(z, 0.0)
    z_min = _z_min_from_scores(avg, ml)
    theta = np.array([stats.theta_hat(i) for i in range(1, k + 1)])
    leader = _pick_leader(z_min, rng)
    return GlrState(n=stats.n, z=z, z_min=np.array(z_min), theta=theta, leader=leader)
