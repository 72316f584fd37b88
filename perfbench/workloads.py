"""The benchmark's three workloads: inputs, the timed call, and its checks.

Each workload is one caller in a closed loop: the next call starts when the
previous one returns.  ``setup`` builds the inputs from the seed, ``call`` is
the timed work and returns its answer, ``check`` verifies the answer.  Calls
go through module attributes (``harness.run_experiment``, ``cli.main``) so
that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
from dataclasses import replace

import numpy as np

import adaptnet.cli as cli
import adaptnet.config as config
import adaptnet.harness as harness
import adaptnet.msdtheory as msdtheory
import adaptnet.network as network
import adaptnet.signalmodel as signalmodel
import adaptnet.spectra as spectra
import adaptnet.twonode as twonode
from adaptnet.strategies import StrategyKind

NCOP = StrategyKind.NON_COOPERATIVE
CONS = StrategyKind.CONSENSUS
ATC = StrategyKind.ATC
CTA = StrategyKind.CTA

# spectral radii of ATC and CTA are equal in exact arithmetic
RHO_TOL = 1e-9


class Checks:
    """Counts checks attempted and failed; a check that raises is a failure,
    never an error of the benchmark."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def check(self, name, predicate):
        self.attempted += 1
        try:
            ok = bool(predicate())
        except Exception as exc:  # a broken answer fails its check
            self.failed.append(f"{name}: {type(exc).__name__}: {exc}")
            return
        if not ok:
            self.failed.append(name)

    def fail_all(self, names, reason):
        self.attempted += len(names)
        self.failed.extend(f"{name}: {reason}" for name in names)


def _rho(report, kind):
    return report.verdicts[kind].spectral_radius


# ---------------------------------------------------------------- compare

class CompareBench20:
    """``adaptnet compare`` through ``adaptnet.cli.main`` on the 20-node
    benchmark profile, all four strategies, ``workers = 2``."""

    name = "compare_bench20"
    sizes = {"full": {"trials": 4, "iterations": 1000},
             "tiny": {"trials": 1, "iterations": 300}}
    check_names = ("exit_code_0", "no_strategy_refused", "gap_consensus_le_1db",
                   "gap_atc_le_1db", "gap_cta_le_1db", "atc_lowest_theory",
                   "atc_lowest_sim", "rho_atc_eq_cta", "rho_diffusion_le_noncoop")

    def setup(self, seed, size, workdir):
        s = self.sizes[size]
        path = os.path.join(workdir, f"{self.name}_seed{seed}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"profile = benchmark\nnodes = 20\ndim = 10\nmu = 0.02\n"
                     f"seed = {seed}\nrule = metropolis\niterations = {s['iterations']}\n"
                     f"trials = {s['trials']}\nworkers = 2\n")
        cfg = config.load_experiment(path)
        return {"path": path, "csv": path[:-4] + ".csv", "cfg": cfg,
                "matrix": cfg.resolve_combination(), "trials": cfg.trials}

    def call(self, inp):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["compare", inp["path"], "--csv", inp["csv"]])
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def check(self, inp, ans, checks):
        if ans["code"] != 0:
            checks.fail_all(self.check_names, f"exit code {ans['code']}: {ans['stderr'].strip()}")
            return
        rows = _network_rows(inp["csv"])
        checks.check("exit_code_0", lambda: ans["code"] == 0)
        checks.check("no_strategy_refused",
                     lambda: set(rows) == {k.value for k in StrategyKind}
                     and "not simulated" not in ans["stdout"])
        for kind in (CONS, ATC, CTA):
            checks.check(f"gap_{kind.value}_le_1db",
                         lambda kind=kind: abs(rows[kind.value]["gap_db"]) <= 1.0)
        checks.check("atc_lowest_theory",
                     lambda: min(rows, key=lambda k: rows[k]["theory_db"]) == ATC.value)
        checks.check("atc_lowest_sim",
                     lambda: min(rows, key=lambda k: rows[k]["simulated_db"]) == ATC.value)
        if "analysis" not in inp:  # once per inputs, outside set-up and the timed call
            inp["analysis"] = spectra.analyze_network(inp["matrix"], inp["cfg"].profiles)
        rep = inp["analysis"]
        checks.check("rho_atc_eq_cta", lambda: abs(_rho(rep, ATC) - _rho(rep, CTA)) <= RHO_TOL)
        checks.check("rho_diffusion_le_noncoop",
                     lambda: _rho(rep, ATC) <= _rho(rep, NCOP) + RHO_TOL)

    def outputs(self, inp, ans):
        rows = _network_rows(inp["csv"]) if ans["code"] == 0 else {}
        return {f"{k}_gap_db": v["gap_db"] for k, v in rows.items()}


def _network_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return {row["strategy"]: {k: float(row[k]) for k in ("theory_db", "simulated_db", "gap_db")}
            for row in csv.DictReader(lines) if row["node"] == "network"}


# ---------------------------------------------------------------- diverge

class Diverge2Node:
    """Acceptance 1's instance: two scalar nodes, mu = (0.4, 0.6),
    a = b = 0.85, where consensus diverges and diffusion does not.  A call
    runs 25 trials, a quarter of acceptance 1's, so a run holds many calls."""

    name = "diverge_2node"
    sizes = {"full": {"trials": 25, "iterations": 400},
             "tiny": {"trials": 4, "iterations": 400}}
    check_names = ("rho_consensus_ge_1", "rho_atc_lt_1", "rho_atc_eq_cta",
                   "consensus_diverged_every_trial", "atc_never_diverged",
                   "cta_never_diverged", "atc_finite_steady", "cta_finite_steady")

    def setup(self, seed, size, workdir):
        a = b = 0.85
        weights = np.array([[1.0 - a, b], [a, 1.0 - b]])
        matrix = network.CombinationMatrix(weights, network.complete_topology(2))
        profiles = [signalmodel.NodeProfile(step_size=mu, covariance=np.array([[1.0]]),
                                            noise_variance=1e-2)
                    for mu in (0.4, 0.6)]
        cfg = harness.ExperimentConfig(
            profiles=profiles, truth=signalmodel.GroundTruth(np.ones(1)),
            combination=matrix, strategies=(CONS, ATC, CTA), seed=seed, workers=1,
            **self.sizes[size])
        return {"cfg": cfg, "matrix": matrix, "trials": cfg.trials}

    def call(self, inp):
        report = spectra.analyze_network(inp["matrix"], inp["cfg"].profiles)
        curves = harness.run_experiment(inp["cfg"])
        return {"report": report, "curves": curves}

    def check(self, inp, ans, checks):
        rep, curves, trials = ans["report"], ans["curves"], inp["cfg"].trials
        checks.check("rho_consensus_ge_1", lambda: _rho(rep, CONS) >= 1.0)
        checks.check("rho_atc_lt_1", lambda: _rho(rep, ATC) < 1.0)
        checks.check("rho_atc_eq_cta", lambda: abs(_rho(rep, ATC) - _rho(rep, CTA)) <= 1e-12)
        checks.check("consensus_diverged_every_trial",
                     lambda: curves[CONS].diverged_trials == trials)
        for kind in (ATC, CTA):
            checks.check(f"{kind.value}_never_diverged",
                         lambda kind=kind: curves[kind].diverged_trials == 0)
            checks.check(f"{kind.value}_finite_steady",
                         lambda kind=kind: np.isfinite(curves[kind].network_steady))

    def outputs(self, inp, ans):
        rep = ans["report"]
        return {f"rho_{k.value}": _rho(rep, k) for k in StrategyKind}


# ----------------------------------------------------------------- theory

class TheorySmallstep:
    """Theory only, on the 20-node benchmark network at mu = 0.002, where the
    MSD series needs the most terms.  The regressor dimension is 5, not 10:
    the series length is the same, and a call takes about 1.7 s instead of
    13 s, so a run holds enough calls for a steady median."""

    name = "theory_smallstep"
    sizes = {"full": {"nodes": 20, "dim": 5, "grid_points": 21},
             "tiny": {"nodes": 5, "dim": 3, "grid_points": 5}}
    mu = 0.002
    check_names = ("eigen_series_agree_atc", "diffusion_first",
                   "stable_non_cooperative", "stable_consensus", "stable_atc", "stable_cta")

    def setup(self, seed, size, workdir):
        s = self.sizes[size]
        topo, profiles, truth = signalmodel.benchmark_profile(
            n_nodes=s["nodes"], dim=s["dim"], seed=seed, step_size=self.mu)
        matrix = network.build_combination_matrix(topo, "metropolis")
        cfg = harness.ExperimentConfig(profiles=profiles, truth=truth, topology=topo,
                                       combination=matrix, seed=seed)
        # homogeneous copy: the mean covariance at every node, own noise kept.
        # Its smallest eigenvalue, which sets the series length, varies little
        # from seed to seed; one node's covariance would vary much more.
        cov = np.mean([p.covariance for p in profiles], axis=0)
        hom = [replace(p, covariance=cov) for p in profiles]
        return {"cfg": cfg, "hom_cfg": replace(cfg, profiles=hom), "matrix": matrix,
                "cov": cov, "noise": [p.noise_variance for p in profiles],
                "grid_points": s["grid_points"], "trials": None}

    def call(self, inp):
        matrix, cfg, hom_cfg = inp["matrix"], inp["cfg"], inp["hom_cfg"]
        report = spectra.analyze_network(matrix, cfg.profiles)
        heterogeneous = harness.theory_reports(cfg)
        homogeneous = harness.theory_reports(hom_cfg)
        atc_series = msdtheory.msd_series(
            spectra.build_error_recursion(ATC, matrix, hom_cfg.profiles))
        ordering = msdtheory.ordering_checks(matrix, inp["cov"], self.mu, inp["noise"])
        grid = twonode.condition_grid(0.5, points=inp["grid_points"])
        return {"report": report, "heterogeneous": heterogeneous,
                "homogeneous": homogeneous, "atc_series": atc_series,
                "ordering": ordering, "grid": grid}

    def check(self, inp, ans, checks):
        eigen, series = ans["homogeneous"][ATC].per_node, ans["atc_series"].per_node
        checks.check("eigen_series_agree_atc",
                     lambda: np.all(np.abs(eigen - series) <= 1e-6 * np.abs(series)))
        checks.check("diffusion_first", lambda: ans["ordering"].diffusion_first)
        for kind in StrategyKind:
            checks.check(f"stable_{kind.value}",
                         lambda kind=kind: ans["report"].verdicts[kind].stable
                         and not ans["heterogeneous"][kind].diverged)

    def outputs(self, inp, ans):
        eigen, series = ans["homogeneous"][ATC].per_node, ans["atc_series"].per_node
        return {"eigen_series_max_rel_diff": float(np.max(np.abs(eigen - series) / np.abs(series))),
                "atc_series_terms": ans["atc_series"].terms}


WORKLOADS = {w.name: w for w in (CompareBench20(), Diverge2Node(), TheorySmallstep())}
