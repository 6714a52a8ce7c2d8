"""Dissimilarity index for visual-search data.

Each image is represented by its vector of per-neuron mean firing rates
(events per slot). The dissimilarity of an (odd, distractor) image pair
in a K-item display is the optimal error exponent D* for the detection
problem whose odd process fires at the odd image's rate vector and whose
K - 1 distractor processes fire at the distractor's: larger D* means the
odd item is found faster, and decision delay should scale like 1/D*.

This module computes pairwise dissimilarity matrices from firing-rate
tables and the statistics used to evaluate an index against observed
decision delays: Pearson correlation of delay with the inverse index,
one-way ANOVA across repeated delays per pair, and the log AM/GM
dispersion of delay * index products (exactly 0 only when the index is a
perfect reciprocal predictor).

Rates must be positive for the exponent to exist, so zero (or tiny)
entries in a loaded table are raised to a configurable floor and the
flooring is recorded per cell.

Image ids follow one rule wherever they enter (a table, a delay row, a
lookup, a delays writer): surrounding whitespace is stripped. What the
CSV writers emit therefore reads back as the same ids.

Tables and matrices hold their numbers as Python values (a table's rows
as `array('d')`, which a solve copies once each into one flat table); their
numpy fields are read-only arrays built on first access, so a caller
that never reads them never loads numpy.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from array import array
from functools import cached_property

from .numerics import (
    DomainError,
    _FrozenRecord,
    _csv_text,
    _f_upper_tail,
    _fan_out,
    _moved,
    _require_int,
    _require_real,
)
from .solver import _solve_pairs, d_star  # noqa: F401 (d_star stays importable from here)

__all__ = [
    "DEFAULT_RATE_FLOOR",
    "FiringRateTable",
    "DissimilarityMatrix",
    "pairwise_dstar",
    "log_am_gm",
    "anova_f",
    "correlation",
    "synthesize_search_dataset",
    "analyze_search_delays",
    "parse_delays_csv",
    "delays_to_csv",
]

# `synthesize_search_dataset` lives in `oddball.reference`, resolved on first access.
__getattr__, __dir__ = _moved(__name__, ("synthesize_search_dataset",))

DEFAULT_RATE_FLOOR = 1e-3

MATRIX_HEADER = "odd_id,distractor_id,dstar,degenerate,floored_cells"
DELAYS_HEADER = "odd_id,distractor_id,delay"


def _read_only(rows, dtype):
    """`rows` (a sequence of equal-length rows) as a read-only 2-D numpy array."""
    import numpy as np

    out = np.array(rows, dtype=dtype)
    out.setflags(write=False)
    return out


class FiringRateTable(_FrozenRecord):
    """Per-image firing-rate vectors with a shared neuron count.

    rates[i, d] is image i's mean rate on neuron d, after flooring:
    entries below `floor` are raised to it and flagged in `floored`.
    Both are read-only numpy arrays, built from `_rows` (one `array('d')`
    per image, never written) and `_floored` on first access.
    """

    _fields = ("images", "floor", "_rows", "_floored")

    @classmethod
    def from_arrays(cls, images, rates, floor: float = DEFAULT_RATE_FLOOR) -> "FiringRateTable":
        """A table from image ids and their rate rows (a 2-D array or a
        sequence of sequences of numbers)."""
        ids = tuple(_image_id(s) for s in images)
        if len(ids) < 1:
            raise DomainError("table needs at least one image")
        if len(set(ids)) != len(ids):
            raise DomainError("image identifiers must be distinct")
        floor = _require_real(floor, "floor", 0.0, open=True)
        try:
            rows = [array("d", row) for row in rates]
        except TypeError:
            rows = []
        if len(rows) != len(ids) or not rows[0] or any(len(r) != len(rows[0]) for r in rows):
            raise DomainError(
                "rates must be a 2-D array of numbers, one row per image, >= 1 neuron"
            )
        if not all(all(map(math.isfinite, row)) and min(row) >= 0.0 for row in rows):
            raise DomainError("rates must be finite and nonnegative")
        return cls(
            images=ids,
            floor=floor,
            _rows=tuple(array("d", [floor if v < floor else v for v in row]) for row in rows),
            _floored=tuple(tuple(map(floor.__gt__, row)) for row in rows),
        )

    @cached_property
    def rates(self):
        return _read_only(self._rows, float)

    @cached_property
    def floored(self):
        return _read_only(self._floored, bool)

    @classmethod
    def from_csv(cls, text: str, floor: float = DEFAULT_RATE_FLOOR) -> "FiringRateTable":
        """Parse `image_id,neuron_1,...,neuron_D` rows."""
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise DomainError("empty firing-rate CSV") from None
        if not header or header[0].strip() != "image_id" or len(header) < 2:
            raise DomainError("firing-rate CSV header must be image_id,neuron_1,...,neuron_D")
        width = len(header)
        ids = []
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise DomainError(f"line {lineno}: expected {width} fields, got {len(row)}")
            ids.append(row[0])
            try:
                rows.append([float(cell) for cell in row[1:]])
            except ValueError as exc:
                raise DomainError(f"line {lineno}: {exc}") from None
        if not ids:
            raise DomainError("firing-rate CSV has no data rows")
        return cls.from_arrays(ids, rows, floor=floor)

    @property
    def n_images(self) -> int:
        return len(self.images)

    @property
    def n_neurons(self) -> int:
        return len(self._rows[0])

    def index_of(self, image_id: str) -> int:
        return _index_of(self.images, image_id)


def _image_id(value) -> str:
    """An image id as stored: the text of `value` without surrounding
    whitespace."""
    return str(value).strip()


def _index_of(images: tuple[str, ...], image_id: str) -> int:
    """Position of image_id in images; DomainError when it is absent."""
    try:
        return images.index(_image_id(image_id))
    except ValueError:
        raise DomainError(f"unknown image id {image_id!r}") from None


class DissimilarityMatrix(_FrozenRecord):
    """Ordered-pair dissimilarities: values[a, b] = D* with image a odd
    among copies of image b. Both orientations are stored; the matrix is
    not symmetric. Diagonal entries are exactly 0 and flagged degenerate,
    as is any pair with identical (post-floor) rate vectors.
    `floored_cells[a, b]` counts the floored cells of both rows (of a
    alone on the diagonal). The three are read-only numpy arrays, built
    on first access from the row tuples of `_values`, `_degenerate` and
    `_floored`."""

    _fields = ("images", "k", "_values", "_degenerate", "_floored")

    @cached_property
    def values(self):
        return _read_only(self._values, float)

    @cached_property
    def degenerate(self):
        return _read_only(self._degenerate, bool)

    @cached_property
    def floored_cells(self):
        return _read_only(self._floored, int)

    def value(self, odd_id: str, distractor_id: str) -> float:
        a = _index_of(self.images, odd_id)
        b = _index_of(self.images, distractor_id)
        return self._values[a][b]

    def to_csv(self) -> str:
        ids, values, degenerate = self.images, self._values, self._degenerate
        floored = self._floored
        rows = [
            (ids[a], ids[b], f"{values[a][b]:.12g}", int(degenerate[a][b]), floored[a][b])
            for a, b in itertools.permutations(range(len(ids)), 2)
        ]
        return _csv_text(MATRIX_HEADER, rows)


def _pair_dstar(table: FiringRateTable, k: int, pairs) -> list[float]:
    """D* of each (odd, distractor) pair of row indices of `table`, in one
    solve (`solver._solve_pairs`); the pairs must not be degenerate."""
    return _solve_pairs(table._rows, pairs, (k - 2) / (k - 1))[1]


def _both_ways(table: FiringRateTable, k: int, pairs) -> list[tuple[float, float]]:
    """(D* of (a, b), D* of (b, a)) for each image pair (a, b), in one solve
    that takes each pair's two orientations one after the other, so the
    kernel takes their shared sign-test sums once."""
    got = _pair_dstar(table, k, [p for a, b in pairs for p in ((a, b), (b, a))])
    return list(zip(got[::2], got[1::2]))


def pairwise_dstar(table: FiringRateTable, k: int, parallelism: int = 1) -> DissimilarityMatrix:
    """Dissimilarity of every ordered image pair in a K-item display.

    The non-degenerate unordered pairs are dealt out with
    `numerics._fan_out`, so both orientations of a pair are in one block,
    and each block is solved in one call of `solver._solve_pairs`, each
    ordered pair to its own stop. A pair's value is bitwise
    `d_star(OddConfig(k, 1, rates[a], rates[b]))`, so it depends neither on
    the other pairs in its block nor on `parallelism`.
    """
    _require_int(k, "display size k", 3)
    _require_int(parallelism, "parallelism", 1)
    rows, images = table._rows, range(table.n_images)
    degenerate = tuple(tuple(rows[a] == rows[b] for b in images) for a in images)
    pairs = [(a, b) for a in images for b in images[a + 1 :] if not degenerate[a][b]]
    values = [[0.0] * len(images) for _ in images]
    if pairs:
        solved = _fan_out(lambda block, stop: _both_ways(table, k, block), pairs, parallelism)
        for (a, b), (ab, ba) in zip(pairs, solved):
            values[a][b], values[b][a] = ab, ba
    flagged = [sum(row) for row in table._floored]
    floored = tuple(
        tuple(flagged[a] + flagged[b] if a != b else flagged[a] for b in images) for a in images
    )
    return DissimilarityMatrix(
        images=table.images, k=k, _values=tuple(map(tuple, values)), _degenerate=degenerate,
        _floored=floored,
    )


def log_am_gm(values) -> float:
    """log of the arithmetic-to-geometric mean ratio: >= 0, and 0 exactly
    when all values are equal. Invariant under common scaling."""
    vals = [float(v) for v in values]
    if not vals:
        raise DomainError("log_am_gm needs at least one value")
    if any(not (v > 0.0 and math.isfinite(v)) for v in vals):
        raise DomainError("log_am_gm requires positive finite values")
    am = math.fsum(vals) / len(vals)
    mean_log = math.fsum(math.log(v) for v in vals) / len(vals)
    return math.log(am) - mean_log


def anova_f(groups) -> tuple[float, float]:
    """One-way ANOVA F statistic and upper-tail p-value.

    Needs >= 2 groups with >= 2 samples each. Zero within-group variance
    with distinct group means gives (inf, 0.0).
    """
    data = [[float(x) for x in g] for g in groups]
    if len(data) < 2:
        raise DomainError("anova_f needs at least two groups")
    if any(len(g) < 2 for g in data):
        raise DomainError("every group needs at least two samples")
    for g in data:
        if any(not math.isfinite(x) for x in g):
            raise DomainError("anova_f requires finite samples")
    n_total = sum(len(g) for g in data)
    grand = math.fsum(math.fsum(g) for g in data) / n_total
    # Centre each group on its first sample: a constant group then has
    # deviations of exactly zero, where fsum(g) / len(g) need not return
    # the sample exactly and would leave a spurious within-group variance.
    shifted = [[x - g[0] for x in g] for g in data]
    offsets = [math.fsum(d) / len(d) for d in shifted]
    means = [g[0] + off for g, off in zip(data, offsets)]
    ss_between = math.fsum(len(g) * (m - grand) ** 2 for g, m in zip(data, means))
    ss_within = math.fsum(
        math.fsum((x - off) ** 2 for x in d) for d, off in zip(shifted, offsets)
    )
    df_between = len(data) - 1
    df_within = n_total - len(data)
    if ss_within == 0.0:
        # Every group is constant, so its mean is its first sample exactly;
        # grand need not equal a shared mean, so ss_between cannot decide.
        if all(m == means[0] for m in means):
            return 0.0, 1.0
        return math.inf, 0.0
    f_stat = (ss_between / df_between) / (ss_within / df_within)
    return f_stat, _f_upper_tail(f_stat, df_between, df_within)


def correlation(x, y) -> float:
    """Pearson correlation coefficient of two equal-length samples."""
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if len(xs) != len(ys):
        raise DomainError("correlation requires equal-length samples")
    if len(xs) < 3:
        raise DomainError("correlation requires at least 3 points")
    if any(not math.isfinite(v) for v in xs + ys):
        raise DomainError("correlation requires finite values")
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((v - mx) ** 2 for v in xs)
    syy = math.fsum((v - my) ** 2 for v in ys)
    if sxx == 0.0 or syy == 0.0:
        raise DomainError("correlation undefined for zero-variance input")
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(xs, ys))
    r = sxy / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def parse_delays_csv(text: str) -> list[tuple[str, str, float]]:
    """Parse `odd_id,distractor_id,delay` rows (repeated rows per pair
    are repeated delay measurements)."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise DomainError("empty delays CSV") from None
    if [h.strip() for h in header] != DELAYS_HEADER.split(","):
        raise DomainError(f"delays CSV header must be {DELAYS_HEADER}")
    out = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise DomainError(f"line {lineno}: expected 3 fields, got {len(row)}")
        try:
            delay = float(row[2])
        except ValueError as exc:
            raise DomainError(f"line {lineno}: {exc}") from None
        out.append((_image_id(row[0]), _image_id(row[1]), delay))
    if not out:
        raise DomainError("delays CSV has no data rows")
    return out


def delays_to_csv(delays) -> str:
    rows = ((_image_id(a), _image_id(b), f"{delay:.12g}") for a, b, delay in delays)
    return _csv_text(DELAYS_HEADER, rows)


def analyze_search_delays(table: FiringRateTable, delays, k: int) -> dict:
    """Evaluate the dissimilarity index against observed decision delays.

    Groups the delay rows by (odd, distractor) pair, computes D* per
    pair, and returns `pearson_r` (mean delay vs 1/D*), `anova_f` /
    `anova_p` across the per-pair delay groups (NaN when some pair has a
    single measurement), and `log_am_gm` of the mean-delay * D* products
    (0 for a perfect reciprocal law).
    """
    _require_int(k, "display size k", 3)
    groups: dict[tuple[str, str], list[float]] = {}  # pairs in first-seen order
    for odd_id, distractor_id, delay in delays:
        delay = _require_real(delay, "delay", 0.0, open=True)
        key = (_image_id(odd_id), _image_id(distractor_id))
        if key[0] == key[1]:
            raise DomainError(f"pair {key[0]!r} vs itself has no odd item")
        groups.setdefault(key, []).append(delay)
    if len(groups) < 3:
        raise DomainError("analysis needs delays for at least 3 distinct pairs")

    pairs = []
    mean_delays = []
    for (odd_id, distractor_id), samples in groups.items():
        a = table.index_of(odd_id)
        b = table.index_of(distractor_id)
        if table._rows[a] == table._rows[b]:
            raise DomainError(
                f"pair ({odd_id!r}, {distractor_id!r}) has identical rate vectors; "
                "delay analysis needs a positive index"
            )
        pairs.append((a, b))
        mean_delays.append(math.fsum(samples) / len(samples))
    diffs = _pair_dstar(table, k, pairs)

    pearson = correlation([1.0 / d for d in diffs], mean_delays)
    if all(len(samples) >= 2 for samples in groups.values()):
        f_stat, p_value = anova_f(list(groups.values()))
    else:
        f_stat, p_value = math.nan, math.nan
    dispersion = log_am_gm([m * d for m, d in zip(mean_delays, diffs)])
    return {
        "pairs": len(groups),
        "pearson_r": pearson,
        "anova_f": f_stat,
        "anova_p": p_value,
        "log_am_gm": dispersion,
    }
