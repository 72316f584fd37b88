"""Key-value experiment config files.

One ``key = value`` pair per line, list values are comma separated.  ``#``
starts a comment anywhere on a line, as in the edge-list and matrix CSV files
that ``topology`` and ``a_csv`` name.  Two modes:

* explicit model: ``nodes``, ``dim``, ``mu`` (scalar or per node),
  ``ru_diag`` (dim values shared, or nodes*dim per node) or ``ru_matrix``
  (dim*dim row-major, shared), ``noise_db`` (scalar or per node), optional
  ``w0`` (dim values, default 1/sqrt(dim) each);
* ``profile = benchmark`` draws the standard 20-node style model from
  ``seed`` (uses ``nodes``, ``dim``, scalar ``mu``, ``edge_prob``); the
  explicit model keys are then rejected.

Network keys: ``topology`` (``full`` | ``line`` | ``random`` | path to an
edge-list file), ``edge_prob`` (random topology only), ``rule`` (``uniform``
| ``metropolis`` | ``relative_variance``) or ``a_csv`` (explicit matrix,
mutually exclusive with ``rule``).  A relative file path is read from the
config file's directory, an absolute one as it is.

Run keys: ``strategies`` (default all four), ``iterations``, ``trials``,
``seed`` (a nonnegative integer), ``steady_window``.  The retired key
``workers`` is still accepted, as an integer of at least 1, and ignored.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ConfigError, check_integer
from .harness import ALL_STRATEGIES, ExperimentConfig
from .network import (NetworkTopology, _content_lines, complete_topology,
                      line_topology, load_combination_csv, load_topology,
                      random_connected_topology)
from .signalmodel import GroundTruth, NodeProfile, benchmark_profile
from .strategies import StrategyKind

_RUN_KEYS = {"strategies", "iterations", "trials", "seed", "steady_window", "workers"}
_MODEL_KEYS = {"nodes", "dim", "mu", "ru_diag", "ru_matrix", "noise_db", "w0"}
_NETWORK_KEYS = {"topology", "edge_prob", "rule", "a_csv"}
_KNOWN_KEYS = _RUN_KEYS | _MODEL_KEYS | _NETWORK_KEYS | {"profile"}


def parse_pairs(text: str) -> dict:
    """Raw key -> string-value mapping; later assignments win."""
    pairs = {}
    for lineno, line in _content_lines(text.splitlines()):
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        pairs[key] = value
    return pairs


def _floats(value: str) -> list:
    try:
        return [float(tok) for tok in value.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected numbers, got {value!r}") from exc


def _number(pairs, key, kind, default):
    """``pairs[key]`` read as ``kind`` (int or float), or ``default`` if unset."""
    if key not in pairs:
        return default
    try:
        return kind(pairs[key])
    except ValueError as exc:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {noun}, got {pairs[key]!r}") from exc


def _sizes(pairs, nodes, dim):
    return (check_integer("nodes", _number(pairs, "nodes", int, nodes), 1),
            check_integer("dim", _number(pairs, "dim", int, dim), 1))


def _per_node(values, n, key):
    if len(values) == 1:
        return [values[0]] * n
    if len(values) == n:
        return list(values)
    raise ConfigError(f"{key} needs 1 or {n} values, got {len(values)}")


def _covariances(pairs, n, m):
    if "ru_diag" in pairs and "ru_matrix" in pairs:
        raise ConfigError("give ru_diag or ru_matrix, not both")
    if "ru_diag" in pairs:
        vals = _floats(pairs["ru_diag"])
        if len(vals) == m:
            shared = np.diag(vals)
            return [shared.copy() for _ in range(n)]
        if len(vals) == n * m:
            grid = np.array(vals).reshape(n, m)
            return [np.diag(row) for row in grid]
        raise ConfigError(f"ru_diag needs {m} or {n * m} values, got {len(vals)}")
    if "ru_matrix" in pairs:
        vals = _floats(pairs["ru_matrix"])
        if len(vals) != m * m:
            raise ConfigError(f"ru_matrix needs {m * m} values, got {len(vals)}")
        shared = np.array(vals).reshape(m, m)
        return [shared.copy() for _ in range(n)]
    raise ConfigError("the explicit model needs ru_diag or ru_matrix")


def _strategies(pairs):
    if "strategies" not in pairs:
        return ALL_STRATEGIES
    kinds = tuple(StrategyKind.from_name(tok)
                  for tok in pairs["strategies"].split(",") if tok.strip())
    if not kinds:
        raise ConfigError("strategies list is empty")
    return kinds


def _topology(pairs, n, seed, base_dir) -> NetworkTopology:
    choice = pairs.get("topology", "full").strip()
    if choice == "full":
        return complete_topology(n)
    if choice == "line":
        return line_topology(n)
    if choice == "random":
        edge_prob = _number(pairs, "edge_prob", float, 0.3)
        return random_connected_topology(n, edge_prob, np.random.default_rng(seed))
    path = os.path.join(base_dir, choice)
    if not os.path.isfile(path):
        raise ConfigError(f"topology {choice!r} is not full/line/random or a readable file")
    return _load(load_topology, path)


def _load(loader, path):
    """Run a file loader, reporting unreadable or malformed files as ConfigError."""
    try:
        return loader(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load {path!r}: {exc}") from exc


def build_experiment(pairs: dict, base_dir: str = ".") -> ExperimentConfig:
    unknown = set(pairs) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    seed = check_integer("seed", _number(pairs, "seed", int, 0))
    strategies = _strategies(pairs)
    iterations = _number(pairs, "iterations", int, 1000)
    trials = _number(pairs, "trials", int, 100)
    steady_window = _number(pairs, "steady_window", float, 0.1)
    workers = _number(pairs, "workers", int, 1)

    if pairs.get("profile") == "benchmark":
        clash = (_MODEL_KEYS - {"nodes", "dim", "mu"}) & set(pairs)
        clash |= {"topology"} & set(pairs)
        if clash:
            raise ConfigError(f"profile = benchmark draws the model itself; "
                              f"drop {sorted(clash)}")
        mu = _floats(pairs["mu"]) if "mu" in pairs else [0.02]
        if len(mu) != 1:
            raise ConfigError("profile = benchmark needs a scalar mu")
        n, m = _sizes(pairs, 20, 10)
        topology, profiles, truth = benchmark_profile(
            n_nodes=n, dim=m, seed=seed, step_size=mu[0],
            edge_prob=_number(pairs, "edge_prob", float, 0.3))
    elif "profile" in pairs:
        raise ConfigError(f"unknown profile {pairs['profile']!r}")
    else:
        for key in ("nodes", "dim", "mu", "noise_db"):
            if key not in pairs:
                raise ConfigError(f"config needs {key!r} (or profile = benchmark)")
        n, m = _sizes(pairs, None, None)
        mu = _per_node(_floats(pairs["mu"]), n, "mu")
        noise_db = _per_node(_floats(pairs["noise_db"]), n, "noise_db")
        covs = _covariances(pairs, n, m)
        with np.errstate(over="ignore"):  # NodeProfile rejects the infinite power
            noise = np.power(10.0, np.array(noise_db) / 10.0)
        profiles = [NodeProfile(covariance=covs[k], step_size=mu[k],
                                noise_variance=float(noise[k]))
                    for k in range(n)]
        if "w0" in pairs:
            w0 = np.array(_floats(pairs["w0"]))
            if w0.size != m:
                raise ConfigError(f"w0 needs {m} values, got {w0.size}")
        else:
            w0 = np.full(m, 1.0 / np.sqrt(m))
        truth = GroundTruth(w0)
        topology = _topology(pairs, n, seed, base_dir)

    combination = None
    rule = None
    if "a_csv" in pairs:
        if "rule" in pairs:
            raise ConfigError("give rule or a_csv, not both")
        combination = _load(load_combination_csv,
                            os.path.join(base_dir, pairs["a_csv"]))
        topology = combination.topology
    else:
        rule = pairs.get("rule", "uniform")

    return ExperimentConfig(profiles=profiles, truth=truth, topology=topology,
                            combination=combination, rule=rule,
                            strategies=strategies, iterations=iterations,
                            trials=trials, seed=seed,
                            steady_window=steady_window, workers=workers)


def load_experiment(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return build_experiment(parse_pairs(text), base_dir=os.path.dirname(path) or ".")
