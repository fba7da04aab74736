"""Seeded ring-plus-chords grids, written as gridse case and scenario files.

Nothing here imports gridse. The generator builds its own linear meter
matrix H (one row per P meter, one column per non-reference bus angle) and
uses it as the oracle: a grid whose H is rank deficient under
``numpy.linalg.matrix_rank`` is rejected and drawn again, and the WLS
answers the benchmark checks against come from ``numpy.linalg.lstsq``.

Bus 1 is the reference. Every branch carries a flow meter whose direction
is drawn at random, so reversed meters occur; every bus carries injection
meters. dc grids are lossless with P meters only; ac grids add resistance,
per-end shunts, Q flow, Q injection and voltage-magnitude meters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import count
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Grid:
    """One generated grid plus its meters, in case-file order.

    ``meters`` holds (kind, location, sigma) with location an ordered
    (from, to) pair for flows and a bus id for bus meters.
    """

    n: int
    branches: tuple[tuple[int, int], ...]
    x: np.ndarray
    r: np.ndarray
    gs: np.ndarray
    bs: np.ndarray
    meters: tuple[tuple[str, object, float], ...]

    @property
    def sigmas(self) -> np.ndarray:
        return np.array([s for _, _, s in self.meters])

    def p_matrix(self) -> np.ndarray:
        """The linear meter matrix of the P meters (dc H, or the P-theta
        block of the ac model at flat start), m_P x (n - 1)."""
        n = self.n
        nb = len(self.branches)
        incidence = np.zeros((nb, n))
        for e, (i, j) in enumerate(self.branches):
            incidence[e, i - 1] = 1.0
            incidence[e, j - 1] = -1.0
        flows = incidence / self.x[:, None]
        injections = incidence.T @ flows
        index = {frozenset(br): e for e, br in enumerate(self.branches)}
        rows = []
        for kind, loc, _ in self.meters:
            if kind == "flow_p":
                e = index[frozenset(loc)]
                sign = 1.0 if loc == self.branches[e] else -1.0
                rows.append(sign * flows[e])
            elif kind == "injection_p":
                rows.append(injections[loc - 1])
        return np.array(rows)[:, 1:]

    def case_document(self, values: np.ndarray | None = None) -> dict:
        buses = [{"id": i, "ref": i == 1, "v": 1.0} for i in range(1, self.n + 1)]
        branches = [
            {"from": i, "to": j, "r": float(self.r[e]), "x": float(self.x[e]),
             "gs": float(self.gs[e]), "bs": float(self.bs[e])}
            for e, (i, j) in enumerate(self.branches)
        ]
        measurements = []
        for idx, (kind, loc, sigma) in enumerate(self.meters):
            record: dict = {"kind": kind}
            if isinstance(loc, tuple):
                record["from"], record["to"] = loc
            else:
                record["bus"] = loc
            record["sigma"] = sigma
            if values is not None:
                record["value"] = float(values[idx])
            measurements.append(record)
        return {"buses": buses, "branches": branches, "measurements": measurements}


def ring_with_chords(rng: np.random.Generator, n: int,
                     chords: int) -> tuple[tuple[int, int], ...]:
    """A ring 1-2-...-n-1 plus ``chords`` distinct extra branches."""
    if n < 3 or chords > n * (n - 1) // 2 - n:
        raise ValueError(f"cannot place {chords} chords on a {n}-bus ring")
    edges = [(i, i % n + 1) for i in range(1, n + 1)]
    seen = {frozenset(e) for e in edges}
    while len(edges) < n + chords:
        i, j = (int(v) + 1 for v in rng.choice(n, size=2, replace=False))
        if frozenset((i, j)) not in seen:
            seen.add(frozenset((i, j)))
            edges.append((i, j))
    return tuple(edges)


def _oriented(rng: np.random.Generator, branches) -> list[tuple[int, int]]:
    flip = rng.random(len(branches)) < 0.3
    return [(j, i) if f else (i, j) for (i, j), f in zip(branches, flip)]


def _draw(seed: int, n: int, chords: int, ac: bool) -> Grid:
    """First observable grid of the seed's attempt sequence."""
    for attempt in count():
        rng = np.random.default_rng([seed, n, chords, int(ac), attempt])
        branches = ring_with_chords(rng, n, chords)
        nb = len(branches)
        x = rng.uniform(0.05, 0.3, nb)
        if ac:
            r = x * rng.uniform(0.1, 0.3, nb)
            gs = rng.uniform(0.0, 0.002, nb)
            bs = rng.uniform(0.0, 0.02, nb)
        else:
            r = gs = bs = np.zeros(nb)
        flows = _oriented(rng, branches)
        meters = [("flow_p", f, 0.008) for f in flows]
        if ac:
            meters += [("flow_q", f, 0.008) for f in flows]
        meters += [("injection_p", b, 0.01) for b in range(1, n + 1)]
        if ac:
            meters += [("injection_q", b, 0.01) for b in range(1, n + 1)]
            meters += [("voltage_magnitude", b, 0.004) for b in range(1, n + 1)]
        grid = Grid(n, branches, x, r, gs, bs, tuple(meters))
        # Rank oracle. In ac mode every bus has a voltage meter, so the P-theta
        # block decides observability (the decoupled Q-V block is diagonal).
        if np.linalg.matrix_rank(grid.p_matrix()) == n - 1:
            return grid
    raise AssertionError("unreachable")


def dc_grid(seed: int, n: int, chords: int) -> Grid:
    return _draw(seed, n, chords, ac=False)


def ac_grid(seed: int, n: int, chords: int) -> Grid:
    return _draw(seed, n, chords, ac=True)


def write_json(path: Path, doc: dict):
    """Write a document laid out as gridse's own serializer does."""
    path.write_text(json.dumps(doc, indent=2))


@dataclass(frozen=True)
class WlsOracle:
    """Linear WLS answers computed without gridse."""

    state: np.ndarray
    residual: np.ndarray
    chi_square: float
    norm: float
    lnr: float


def wls_oracle(h: np.ndarray, z: np.ndarray, sigmas: np.ndarray) -> WlsOracle:
    """State by ``numpy.linalg.lstsq`` on the whitened system; residual
    variances Omega_ii = sigma_i^2 (1 - leverage_i) from a QR factor."""
    scale = 1.0 / sigmas
    hw = h * scale[:, None]
    x, *_ = np.linalg.lstsq(hw, z * scale, rcond=None)
    r = z - h @ x
    q, _ = np.linalg.qr(hw)
    omega = sigmas ** 2 * (1.0 - np.einsum("ij,ij->i", q, q))
    usable = omega > 1e-14
    return WlsOracle(
        state=x,
        residual=r,
        chi_square=float(np.sum((r * scale) ** 2)),
        norm=float(np.linalg.norm(r)),
        lnr=float(np.max(np.abs(r[usable]) / np.sqrt(omega[usable]))),
    )
