"""Point-set file format and reproducible random generation.

A point file is plain text, one point per line: ``<x> <y>``.  Lines starting
with '#' (and blank lines) are ignored.  Ids are assigned by line order.
Serialization uses 17 significant digits, enough for an exact double
round-trip.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .geometry import GeneralPositionError, PointSet, check_general_position

log = logging.getLogger(__name__)

DISTRIBUTIONS = ("uniform-square", "gaussian", "annulus")
MAX_DRAWS = 50


def parse_points(text: str) -> PointSet:
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<x> <y>', got {raw!r}")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"line {lineno}: coordinates must be finite, got {raw!r}")
        pairs.append((x, y))
    return PointSet.from_pairs(pairs)


def serialize_points(ps: PointSet) -> str:
    lines = [f"{x:.17g} {y:.17g}" for x, y in zip(ps.xs.tolist(), ps.ys.tolist())]
    return "\n".join(lines) + ("\n" if lines else "")


def load_points(path: Union[str, Path]) -> PointSet:
    return parse_points(Path(path).read_text())


def save_points(ps: PointSet, path: Union[str, Path]) -> None:
    Path(path).write_text(serialize_points(ps))


@dataclass(frozen=True)
class RunConfig:
    n: int
    seed: int
    distribution: str = "uniform-square"
    perturbation: Optional[float] = None  # jitter scale for repair, off by default

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(
                f"unknown distribution {self.distribution!r}; "
                f"choose from {DISTRIBUTIONS}"
            )


def _sample(rng: np.random.Generator, cfg: RunConfig) -> np.ndarray:
    n = cfg.n
    if cfg.distribution == "uniform-square":
        return rng.uniform(0.0, 1000.0, size=(n, 2))
    if cfg.distribution == "gaussian":
        return rng.normal(0.0, 250.0, size=(n, 2))
    # annulus: radii in [300, 500], uniform angle
    r = np.sqrt(rng.uniform(300.0**2, 500.0**2, size=n))
    t = rng.uniform(0.0, 2 * np.pi, size=n)
    return np.column_stack([r * np.cos(t), r * np.sin(t)])


def generate(cfg: RunConfig) -> PointSet:
    """Deterministic pseudo-random point set in general position.

    Each draw is screened with ``check_general_position``, the screen
    ``build_dt`` runs up front.  Degenerate draws are rejected and redrawn
    from the same stream (so the result is still a pure function of the
    config), up to ``MAX_DRAWS`` draws.  With ``perturbation`` set, a
    degenerate draw is jittered instead of redrawn; every repair is logged
    since it changes the instance.  Four points on an empty circle pass the
    screen and are left to ``build_dt``; continuous draws hit them with
    probability zero.
    """
    rng = np.random.default_rng(cfg.seed)
    for attempt in range(MAX_DRAWS):
        pts = _sample(rng, cfg)
        ps = PointSet.from_pairs(pts)
        violations = check_general_position(ps)
        if not violations:
            return ps
        if cfg.perturbation:
            jitter = rng.uniform(-cfg.perturbation, cfg.perturbation, size=pts.shape)
            repaired = PointSet.from_pairs(pts + jitter)
            if not check_general_position(repaired):
                log.warning(
                    "generate: perturbed degenerate draw (seed=%d, attempt=%d, "
                    "violations=%s)",
                    cfg.seed,
                    attempt,
                    [str(v) for v in violations[:5]],
                )
                return repaired
        log.info(
            "generate: rejected degenerate draw (seed=%d, attempt=%d)",
            cfg.seed,
            attempt,
        )
    raise GeneralPositionError(violations)
