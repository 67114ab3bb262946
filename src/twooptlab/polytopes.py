"""Half-space systems over edge-weight space and their volume estimators.

Fixing the reference tour (0, 1, ..., n-1), the event "this tour is
2-optimal under i.i.d. uniform weights" is the event that the weight vector
lands in the polytope cut out of the unit box by one inequality per
2-change: removed weights minus added weights <= 0.  The rows come from the
shared move table ``core.move_quadruples``, the same table the exact census
scans.  The volume of the polytope equals the probability that a fixed tour
is 2-optimal, so the census mean over random instances divided by the tour
count is an independent check on it.  Two estimators are kept: plain
rejection sampling, and a telescoped product of conditional acceptance rates
sampled by hit-and-run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import move_quadruples, pair_count, pair_index
from .rng import mc_batches, substream


@dataclass(frozen=True)
class Polytope:
    """Sparse rows a.w <= rhs inside the implicit unit box [0,1]^dim."""

    dim: int
    rows: tuple[tuple[tuple[tuple[int, float], ...], float], ...]

    @classmethod
    def from_rows(cls, dim: int, rows) -> "Polytope":
        frozen = tuple(
            (tuple(sorted((int(c), float(v)) for c, v in coeffs.items())), float(rhs))
            for coeffs, rhs in rows
        )
        return cls(dim=dim, rows=frozen)

    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        a = np.zeros((len(self.rows), self.dim))
        b = np.zeros(len(self.rows))
        for r, (coeffs, rhs) in enumerate(self.rows):
            for col, val in coeffs:
                a[r, col] = val
            b[r] = rhs
        return a, b


def build_two_opt_polytope(n: int) -> Polytope:
    """One row per 2-change on the reference tour; n(n-3)/2 rows in total."""
    rows = [
        (
            {
                pair_index(a, b, n): 1.0,
                pair_index(c, d, n): 1.0,
                pair_index(a, c, n): -1.0,
                pair_index(b, d, n): -1.0,
            },
            0.0,
        )
        for a, b, c, d in move_quadruples(n)
    ]
    return Polytope.from_rows(pair_count(n), rows)


@dataclass(frozen=True)
class VolumeEstimate:
    estimate: float
    stderr: float
    samples: int
    method: str
    zero_acceptance: bool = False
    degenerate: bool = False
    phases: tuple[float, ...] = field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "stderr": self.stderr,
            "samples": self.samples,
            "method": self.method,
            "zero_acceptance": self.zero_acceptance,
            "degenerate": self.degenerate,
            "phases": list(self.phases),
        }


def estimate_volume_rejection(
    p: Polytope, samples: int, seed: int, workers: int = 1, batch: int = 200_000
) -> VolumeEstimate:
    """Fraction of uniform box points satisfying every row."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not p.rows:
        return VolumeEstimate(estimate=1.0, stderr=0.0, samples=samples, method="rejection")
    a, b = p.dense()
    hits = 0
    for stream, m in mc_batches(seed, f"volume-rejection:{p.dim}", samples, workers, batch):
        u = stream.random((m, p.dim))
        hits += int(np.all(u @ a.T <= b, axis=1).sum())
    est = hits / samples
    stderr = math.sqrt(est * (1.0 - est) / samples)
    return VolumeEstimate(
        estimate=est,
        stderr=stderr,
        samples=samples,
        method="rejection",
        zero_acceptance=(hits == 0),
    )


def _chord_range(x, u, a, b):
    """Intersection of the line x + t*u with the box and active rows."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = (0.0 - x) / u
        t1 = (1.0 - x) / u
    mask = np.abs(u) > 1e-14
    lo = float(np.max(np.minimum(t0, t1)[mask]))
    hi = float(np.min(np.maximum(t0, t1)[mask]))
    if a is not None and len(a):
        au = a @ u
        slack = b - a @ x
        pos = au > 1e-14
        neg = au < -1e-14
        if pos.any():
            hi = min(hi, float(np.min(slack[pos] / au[pos])))
        if neg.any():
            lo = max(lo, float(np.max(slack[neg] / au[neg])))
    return lo, hi


def _hit_and_run_samples(start, a, b, count, thin, burn_in, rng):
    """Uniform samples in {x in box : a.x <= b} by hit-and-run from start."""
    x = np.array(start, dtype=float)
    dim = x.shape[0]
    out = np.empty((count, dim))
    total = burn_in + count * thin
    collected = 0
    for step in range(1, total + 1):
        u = rng.standard_normal(dim)
        lo, hi = _chord_range(x, u, a, b)
        if hi <= lo:  # numerically stuck on a face; stay put
            continue
        x = x + rng.uniform(lo, hi) * u
        np.clip(x, 0.0, 1.0, out=x)
        if step > burn_in and (step - burn_in) % thin == 0:
            out[collected] = x
            collected += 1
    while collected < count:
        out[collected] = x
        collected += 1
    return out


def _pilot_row_order(p: Polytope, seed: int, pilot: int) -> list[int]:
    """Rows ordered by increasing acceptance impact on uniform box samples."""
    a, b = p.dense()
    u = substream(seed, "telescoping-pilot").random((pilot, p.dim))
    rates = (u @ a.T <= b).mean(axis=0)
    return sorted(range(len(p.rows)), key=lambda r: (-rates[r], r))


def estimate_volume_telescoping(
    p: Polytope,
    samples_per_phase: int,
    seed: int,
    thin: int = 50,
    burn_in: int = 500,
    pilot: int = 2000,
) -> VolumeEstimate:
    """Product of conditional row-acceptance rates, one hit-and-run phase per row.

    Phase k samples the polytope of the first k-1 rows (box always active)
    and estimates the fraction satisfying row k.  A phase with zero accepted
    samples flags the estimate as degenerate and aborts with the partial
    product.
    """
    if samples_per_phase < 100:
        raise ValueError("samples_per_phase must be >= 100")
    if not p.rows:
        return VolumeEstimate(estimate=1.0, stderr=0.0, samples=0, method="telescoping")
    a_all, b_all = p.dense()
    order = _pilot_row_order(p, seed, pilot)
    rng = substream(seed, "telescoping-chain")
    x = np.full(p.dim, 0.5)
    factors: list[float] = []
    rel_var = 0.0
    for phase, row in enumerate(order):
        if phase == 0:
            # No rows active yet: box samples are exact i.i.d. uniforms.
            samples = rng.random((samples_per_phase, p.dim))
        else:
            active = order[:phase]
            samples = _hit_and_run_samples(
                x, a_all[active], b_all[active], samples_per_phase, thin, burn_in, rng
            )
        slack = b_all[row] - samples @ a_all[row]
        ok = slack >= 0.0
        hits = int(ok.sum())
        if hits == 0:
            return VolumeEstimate(
                estimate=0.0,
                stderr=float("nan"),
                samples=(phase + 1) * samples_per_phase,
                method="telescoping",
                degenerate=True,
                phases=tuple(factors),
            )
        rate = hits / samples_per_phase
        factors.append(rate)
        rel_var += (1.0 - rate) / (rate * samples_per_phase)
        x = samples[int(np.argmax(slack))]
    estimate = math.prod(factors)
    return VolumeEstimate(
        estimate=estimate,
        stderr=estimate * math.sqrt(rel_var),
        samples=len(order) * samples_per_phase,
        method="telescoping",
        phases=tuple(factors),
    )
