"""The three benchmark workloads: inputs made from a seed, one op, its checks.

Constructing a workload is its set-up: it generates the grid, checks it with
the rank oracle and writes the case and scenario files gridse reads. The
answers the checks compare against, and the scipy imports they need, are
worked out on first use, after the set-up clock stops, so set-up times
only what gridse itself imports. ``op(i, lap)`` makes the calls a user of
``gridse montecarlo`` or ``gridse scenario run`` waits for; an op that
takes seconds calls ``lap()`` between program calls so the runner can
measure machine speed there. ``check(i, out)`` returns the list of failed
checks (empty when the op is correct). Calls go through module attributes
so that a tracer's wrappers see them.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import cached_property
from pathlib import Path

import numpy as np

import gen
from gridse import attack, measurement, network, scenarios
from gridse.baddata import DetectorConfig

ALPHA = 0.05
DETECTORS = ("chi_square", "norm_threshold", "lnr")
# Seeded runs are deterministic, so a correct program fails the binomial
# false-alarm check only if a seed lands this far in the tail.
BINOMIAL_P_FLOOR = 1e-6
# Estimates come from a Cholesky solve; the oracle uses lstsq and QR. On
# the 1000-bus grid the observed gaps are about 1e-14 for the state and
# 1e-13 relative for the statistics.
STATE_ATOL = 1e-8
STATISTIC_RTOL = 1e-9
STEALTH_RTOL = 1e-9


def _detectors(tau: float) -> list[dict]:
    return [{"method": "chi_square", "alpha": ALPHA},
            {"method": "norm_threshold", "tau": tau},
            {"method": "lnr"}]


def _norm_tau(grid: gen.Grid, k: int) -> float:
    """A fixed tau near the expected residual norm of a clean run."""
    sigmas = grid.sigmas
    return float(1.2 * np.sqrt(np.sum(sigmas ** 2) * (len(sigmas) - k) / len(sigmas)))


class MonteCarloDC:
    """``run_monte_carlo`` with the stealth arm on a small dc grid.

    One op is one detector cycle: a call (then its machine report) for each
    of the three detectors, each with ``trials`` trials and fresh noise
    seeds.
    """

    name = "mc_dc_30"
    kernel = "generator"
    magnitude = 0.05

    def __init__(self, seed: int, workdir: Path, n: int = 30, chords: int = 7,
                 trials: int = 60):
        self.seed = seed
        self.n = n
        self.trials = trials
        self.op_trials = len(DETECTORS) * trials
        grid = gen.dc_grid(seed, n, chords)
        h = grid.p_matrix()
        self.m, self.k = h.shape
        rng = np.random.default_rng([seed, 1])
        theta = rng.normal(0.0, 0.1, self.k)
        z = h @ theta + grid.sigmas * rng.normal(size=self.m)
        self.case_path = workdir / "case.json"
        gen.write_json(self.case_path, grid.case_document(z))
        tau = _norm_tau(grid, self.k)
        self.detectors = [DetectorConfig(**d) for d in _detectors(tau)]

    def op(self, i: int, lap):
        results = []
        for d, detector in enumerate(self.detectors):
            stats = scenarios.run_monte_carlo(
                self.case_path, trials=self.trials,
                noise_seed_base=self.seed * 10 ** 9 + (i * len(DETECTORS) + d) * self.trials,
                attack="stealth", magnitude=self.magnitude, detector=detector)
            results.append((detector.method, stats, scenarios.emit_report(stats, "machine")))
        return results

    def check(self, i: int, out) -> list[str]:
        return [msg for result in out for msg in self._check_call(*result)]

    def _check_call(self, method: str, stats, text: str) -> list[str]:
        bad = []
        hit = np.array(stats.attacked_statistics)
        clean = np.array(stats.unattacked_statistics)
        if stats.trials != self.trials or hit.shape != (self.trials,) \
                or clean.shape != (self.trials,):
            bad.append(f"{method}: expected {self.trials} trials")
        elif not np.allclose(hit, clean, rtol=STEALTH_RTOL, atol=0.0):
            worst = float(np.max(np.abs(hit - clean) / np.abs(clean)))
            bad.append(f"{method}: attacked statistic moved by {worst:.3g} relative")
        if stats.detection_rate != stats.false_alarm_rate:
            bad.append(f"{method}: detection rate {stats.detection_rate} != "
                       f"false-alarm rate {stats.false_alarm_rate}")
        if method == "chi_square":
            from scipy.stats import binom  # after set-up: see the module docstring
            alarms = round(stats.false_alarm_rate * self.trials)
            p = 2.0 * min(binom.cdf(alarms, self.trials, ALPHA),
                          binom.sf(alarms - 1, self.trials, ALPHA))
            if p < BINOMIAL_P_FLOOR:
                bad.append(f"chi_square: {alarms}/{self.trials} false alarms at "
                           f"alpha {ALPHA} (p = {p:.2g})")
        if json.loads(text) != stats.as_dict():
            bad.append(f"{method}: machine report differs from the stats")
        return bad

    def tally(self, i: int, out, detections: Counter):
        for method, stats, _ in out:
            detections[method, "attacked"] += np.array(
                [round(stats.detection_rate * self.trials), self.trials])
            detections[method, "clean"] += np.array(
                [round(stats.false_alarm_rate * self.trials), self.trials])


class ScenarioDC:
    """One analyst pass over a large dc grid.

    An op loads and runs a stealth-shift scenario with all three detectors
    and renders its machine report, then parses the case again, builds H and
    runs the attack analysis: a constrained stealth attack on a seeded meter
    subset, its verification, and a protection check on another subset.
    """

    name = "scenario_dc_1000"
    op_trials = 1  # an op counts as one trial in trials_per_s
    variants = 3
    kernel = "dense"

    def __init__(self, seed: int, workdir: Path, n: int = 1000, chords: int = 250):
        self.n = n
        grid = gen.dc_grid(seed, n, chords)
        self.grid = grid
        h = grid.p_matrix()
        self.m, self.k = h.shape
        m, k = self.m, self.k
        rng = np.random.default_rng([seed, 2])
        self.z = h @ rng.normal(0.0, 0.1, k) + grid.sigmas * rng.normal(size=m)
        self.case_path = workdir / "case.json"
        gen.write_json(self.case_path, grid.case_document(self.z))
        tau = _norm_tau(grid, k)

        self.runs = []
        for v in range(self.variants):
            c = rng.normal(0.0, 0.01, k)
            path = workdir / f"scenario-{v}.json"
            gen.write_json(path, {
                "name": f"stealth-{v}", "case": self.case_path.name,
                "measurements": {"source": "case"},
                "attack": {"type": "stealth_shift", "c": c.tolist()},
                "detectors": _detectors(tau), "mode": "dc"})
            # Meters that see the angle of one bus, plus a few others: the
            # blocked rows then leave that angle free, so an attack exists.
            col = int(rng.integers(k))
            accessible = set(np.flatnonzero(h[:, col]) + 1)
            accessible |= set(int(i) for i in rng.choice(m, 10, replace=False) + 1)
            # Three quarters of the meters: on these grids that leaves a few
            # stealth directions about as often as none, so both outcomes
            # occur, and every variant costs the same.
            protected = sorted(int(i) for i in rng.choice(m, 3 * m // 4, replace=False) + 1)
            self.runs.append((path, c, sorted(accessible), protected))

    @cached_property
    def oracle(self) -> tuple[gen.WlsOracle, list[int]]:
        """The clean readings' WLS answers and the rank of each variant's
        protected rows, from numpy alone; worked out on first use."""
        h = self.grid.p_matrix()
        ranks = [int(np.linalg.matrix_rank(h[np.array(protected) - 1]))
                 for _, _, _, protected in self.runs]
        return gen.wls_oracle(h, self.z, self.grid.sigmas), ranks

    def op(self, i: int, lap):
        path, _, accessible, protected = self.runs[i % self.variants]
        report = scenarios.run_scenario(scenarios.load_scenario(path))
        text = scenarios.emit_report(report, "machine")
        lap()
        parsed = network.parse_case(self.case_path.read_text())
        h = measurement.dc_jacobian(parsed.network,
                                    network.build_admittance(parsed.network),
                                    parsed.config)
        lap()
        found = attack.constrained_stealth_attack(h, accessible)
        lap()
        verified = attack.verify_stealth(h, found[1]) if found is not None else None
        return report, text, found, verified, attack.protection_check(h, protected)

    def check(self, i: int, out) -> list[str]:
        report, text, found, verified, protection = out
        _, c, accessible, _ = self.runs[i % self.variants]
        clean, ranks = self.oracle
        rank = ranks[i % self.variants]
        bad = []
        expected = clean.state + c
        gap = float(np.max(np.abs(np.array(report.state) - expected)))
        if not report.attacked or gap > STATE_ATOL * max(1.0, np.max(np.abs(expected))):
            bad.append(f"state is {gap:.3g} from the lstsq oracle shifted by c")
        oracle = {"chi_square": clean.chi_square,
                  "norm_threshold": clean.norm, "lnr": clean.lnr}
        for verdict in report.verdicts:
            want = oracle[verdict.method]
            if abs(verdict.statistic - want) > STATISTIC_RTOL * abs(want):
                bad.append(f"{verdict.method} statistic {verdict.statistic!r} "
                           f"!= clean {want!r}")
        chi = next(v for v in report.verdicts if v.method == "chi_square")
        from scipy.stats import chi2  # after set-up: see the module docstring
        chi_threshold = chi2.ppf(1.0 - ALPHA, self.m - self.k)
        if abs(chi.threshold_used - chi_threshold) > 1e-12 * chi_threshold:
            bad.append("chi_square threshold differs from scipy's chi2.ppf")
        doc = json.loads(text)
        if doc["name"] != report.name or [v["detected"] for v in doc["verdicts"]] \
                != [v.detected for v in report.verdicts]:
            bad.append("machine report differs from the scenario report")
        if found is None:
            bad.append("constrained attack found no direction")
        else:
            a = found[1]
            blocked = np.setdiff1d(np.arange(self.m), np.array(accessible) - 1)
            leak = float(np.max(np.abs(a[blocked])))
            if leak > STEALTH_RTOL * max(1.0, float(np.linalg.norm(a))):
                bad.append(f"constrained attack is {leak:.3g} on a blocked meter")
            if verified is not True:
                bad.append("verify_stealth rejected the constrained attack")
        if protection.protected != (rank == self.k) \
                or protection.residual_attack_dim != self.k - rank:
            bad.append(f"protection_check {protection} disagrees with rank {rank}")
        return bad

    def tally(self, i: int, out, detections: Counter):
        for verdict in out[0].verdicts:
            detections[verdict.method, "attacked"] += np.array([verdict.detected, 1])


class ScenarioAC:
    """One ac scenario run on a lossy grid with shunts: readings simulated
    from a seeded true state, one gross error, all three detectors."""

    name = "ac_scenario_118"
    op_trials = 1  # an op counts as one trial in trials_per_s
    variants = 3
    kernel = "interpreter"
    gross_error = 25.0  # in sigmas of the corrupted meter

    def __init__(self, seed: int, workdir: Path, n: int = 118, chords: int = 30):
        self.n = n
        grid = gen.ac_grid(seed, n, chords)
        self.m, self.k = len(grid.meters), 2 * n - 1
        case_path = workdir / "case.json"
        gen.write_json(case_path, grid.case_document())
        rng = np.random.default_rng([seed, 3])
        angles = {"1": 0.0} | {str(b): float(rng.normal(0.0, 0.05))
                                for b in range(2, n + 1)}
        magnitudes = {str(b): float(rng.uniform(0.96, 1.04)) for b in range(1, n + 1)}
        flows = [i for i, (kind, _, _) in enumerate(grid.meters)
                 if kind in ("flow_p", "flow_q")]
        tau = _norm_tau(grid, self.k)
        self.runs = []
        for v in range(self.variants):
            bad_meter = int(rng.choice(flows))
            deltas = np.zeros(self.m)
            deltas[bad_meter] = rng.choice((-1.0, 1.0)) * self.gross_error \
                * grid.meters[bad_meter][2]
            path = workdir / f"scenario-{v}.json"
            gen.write_json(path, {
                "name": f"gross-error-{v}", "case": case_path.name,
                "measurements": {"simulate": {
                    "angles": angles, "magnitudes": magnitudes,
                    "seed": int(rng.integers(2 ** 31)), "noise_scale": 1.0}},
                "attack": {"type": "explicit_deltas", "deltas": deltas.tolist()},
                "detectors": _detectors(tau), "mode": "ac"})
            self.runs.append((path, bad_meter + 1))

    def op(self, i: int, lap):
        report = scenarios.run_scenario(
            scenarios.load_scenario(self.runs[i % self.variants][0]))
        return report, scenarios.emit_report(report, "machine")

    def check(self, i: int, out) -> list[str]:
        report, text = out
        bad_meter = self.runs[i % self.variants][1]
        bad = []
        if not report.converged:
            bad.append("Gauss-Newton did not converge")
        lnr = next(v for v in report.verdicts if v.method == "lnr")
        if not lnr.detected or lnr.suspect_meter != bad_meter:
            bad.append(f"lnr suspects meter {lnr.suspect_meter}, "
                       f"corrupted meter is {bad_meter}")
        if len(json.loads(text)["state"]) != self.k:
            bad.append("machine report has the wrong state length")
        return bad

    def tally(self, i: int, out, detections: Counter):
        for verdict in out[0].verdicts:
            detections[verdict.method, "attacked"] += np.array([verdict.detected, 1])


WORKLOADS = {w.name: w for w in (MonteCarloDC, ScenarioDC, ScenarioAC)}
