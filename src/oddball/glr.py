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

`reference._scores` is the one definition of both scores; every caller
reads them from it. The modified GLR statistic of hypothesis i against j is

    Z_ij = averaged_log_likelihood(i) - ml_log_likelihood(j),

and Z_i = min over j != i of Z_ij. Averaging in the numerator (rather
than maximizing) is what makes the statistic a supermartingale under the
wrong hypothesis and yields Z_ij + Z_ji <= 0; consequently at most one
process can hold a positive score, which is what makes thresholding sound.

This module keeps the tallies, `SufficientStats`, which every command
reads. The scores, `GlrState` and `modified_glr` run only on the Python
loop or for a caller: they live in `oddball.reference` and resolve from
here on first access.
"""

from __future__ import annotations

from .numerics import DomainError, _Record, _moved, _require_int, _require_list

__all__ = [
    "SufficientStats",
    "GlrState",
    "averaged_log_likelihood",
    "ml_log_likelihood",
    "modified_glr",
]

__getattr__, __dir__ = _moved(
    __name__, ("GlrState", "averaged_log_likelihood", "ml_log_likelihood", "modified_glr")
)


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


