import re

import numpy as np
import numpy.testing as npt
import pytest

import adaptnet.cli as cli
import adaptnet.harness as harness
from adaptnet import (ConfigError, NumericalError, StrategyKind,
                      build_combination_matrix, build_experiment,
                      complete_topology, line_topology, load_combination_csv,
                      load_experiment, load_topology, parse_pairs)
from adaptnet.cli import build_parser, main


MINIMAL = """
nodes = 2
dim = 2
mu = 0.1
noise_db = -20
ru_diag = 1, 2
"""


def test_parse_pairs_basics():
    pairs = parse_pairs("a = 1\n# comment\n b = two words # trailing\n\na = 3\n")
    assert pairs == {"a": "3", "b": "two words"}


def test_parse_pairs_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_pairs("a = 1\nnot a pair\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_pairs("key =\n")


def test_minimal_explicit_model():
    cfg = build_experiment(parse_pairs(MINIMAL))
    assert len(cfg.profiles) == 2
    for p in cfg.profiles:
        assert p.step_size == 0.1
        npt.assert_array_equal(p.covariance, np.diag([1.0, 2.0]))
        assert p.noise_variance == pytest.approx(1e-2)
    npt.assert_allclose(cfg.truth.vector, np.full(2, 1 / np.sqrt(2)))
    assert cfg.rule == "uniform"
    assert cfg.strategies == tuple(StrategyKind)
    matrix = cfg.resolve_combination()
    npt.assert_allclose(matrix.weights, np.full((2, 2), 0.5))


def test_per_node_values_and_run_keys():
    text = MINIMAL + """
mu = 0.1, 0.2
noise_db = -20, -30
ru_diag = 1, 2, 3, 4
w0 = 1, 0
strategies = atc, non_cooperative
iterations = 50
trials = 7
seed = 42
steady_window = 0.25
workers = 3
"""
    cfg = build_experiment(parse_pairs(text))
    assert [p.step_size for p in cfg.profiles] == [0.1, 0.2]
    assert cfg.profiles[1].noise_variance == pytest.approx(1e-3)
    npt.assert_array_equal(cfg.profiles[0].covariance, np.diag([1.0, 2.0]))
    npt.assert_array_equal(cfg.profiles[1].covariance, np.diag([3.0, 4.0]))
    npt.assert_array_equal(cfg.truth.vector, [1.0, 0.0])
    assert cfg.strategies == (StrategyKind.ATC, StrategyKind.NON_COOPERATIVE)
    assert (cfg.iterations, cfg.trials, cfg.seed) == (50, 7, 42)
    assert cfg.steady_window == 0.25     # workers is retired: read and ignored


def test_full_covariance_matrix_shared():
    text = MINIMAL.replace("ru_diag = 1, 2", "ru_matrix = 2, 0.5, 0.5, 1")
    cfg = build_experiment(parse_pairs(text))
    npt.assert_array_equal(cfg.profiles[0].covariance, [[2.0, 0.5], [0.5, 1.0]])
    npt.assert_array_equal(cfg.profiles[1].covariance, [[2.0, 0.5], [0.5, 1.0]])


@pytest.mark.parametrize("mutation, fragment", [
    ("bogus_key = 1", "unknown config keys"),
    ("ru_matrix = 1, 0, 0, 1", "not both"),
    ("w0 = 1, 2, 3", "w0 needs 2 values"),
    ("mu = 0.1, 0.2, 0.3", "mu needs 1 or 2 values"),
    ("ru_diag = 1, 2, 3", "ru_diag needs 2 or 4 values"),
    ("strategies = gossip", "gossip"),
    ("iterations = many", "must be an integer"),
    ("topology = nowhere.topo", "not full/line/random or a readable file"),
    ("rule = uniform\na_csv = some.csv", "not both"),
    # the shared integer rule words this case; the id keeps its earlier name
    pytest.param("seed = -1", "seed must be an integer of at least 0",
                 id="seed = -1-seed must be a nonnegative integer"),
    ("nodes = 0", "nodes must be an integer of at least 1"),
    ("dim = 0", "dim must be an integer of at least 1"),
    ("ru_diag = -1, 2", "positive definite"),
    ("a_csv = missing.csv", "cannot load"),
    ("strategies = ,", "strategies list is empty"),
    ("topology = random\nedge_prob = 1.5", "edge_prob must lie in"),
])
def test_explicit_model_rejections(mutation, fragment):
    with pytest.raises(ConfigError, match=fragment):
        build_experiment(parse_pairs(MINIMAL + mutation + "\n"))


@pytest.mark.parametrize("covariance, fragment", [
    ("ru_matrix = 1, 0, 1", "ru_matrix needs 4 values, got 3"),
    ("", "the explicit model needs ru_diag or ru_matrix"),
], ids=["ru_matrix count", "no covariance"])
def test_explicit_model_covariance_rejections(covariance, fragment):
    with pytest.raises(ConfigError, match=fragment):
        build_experiment(parse_pairs(MINIMAL.replace("ru_diag = 1, 2", covariance)))


def test_missing_required_key():
    with pytest.raises(ConfigError, match="noise_db"):
        build_experiment(parse_pairs("nodes = 2\ndim = 2\nmu = 0.1\nru_diag = 1, 2\n"))


def test_benchmark_profile_mode():
    cfg = build_experiment(parse_pairs("profile = benchmark\nnodes = 6\ndim = 3\n"
                                       "mu = 0.05\nseed = 2\ntrials = 4\n"))
    assert len(cfg.profiles) == 6
    assert cfg.profiles[0].covariance.shape == (3, 3)
    assert all(p.step_size == 0.05 for p in cfg.profiles)
    assert cfg.trials == 4
    # drawn model is a function of the seed alone
    again = build_experiment(parse_pairs("profile = benchmark\nnodes = 6\ndim = 3\n"
                                         "mu = 0.05\nseed = 2\ntrials = 4\n"))
    npt.assert_array_equal(cfg.truth.vector, again.truth.vector)
    npt.assert_array_equal(cfg.topology.adjacency, again.topology.adjacency)


def test_benchmark_profile_rejects_model_keys():
    with pytest.raises(ConfigError, match="noise_db"):
        build_experiment(parse_pairs("profile = benchmark\nnoise_db = -20\n"))
    with pytest.raises(ConfigError, match="scalar mu"):
        build_experiment(parse_pairs("profile = benchmark\nmu = 0.1, 0.2\n"))
    with pytest.raises(ConfigError, match="unknown profile"):
        build_experiment(parse_pairs("profile = deluxe\n"))
    with pytest.raises(ConfigError, match="seed"):
        build_experiment(parse_pairs("profile = benchmark\nseed = -1\n"))


def test_topology_choices(tmp_path):
    line = build_experiment(parse_pairs(MINIMAL + "topology = line\n"))
    npt.assert_array_equal(line.topology.adjacency, line_topology(2).adjacency)

    rand = build_experiment(parse_pairs(
        "nodes = 5\ndim = 1\nmu = 0.1\nnoise_db = -20\nru_diag = 1\n"
        "topology = random\nedge_prob = 0.5\nseed = 3\n"))
    assert rand.topology.n_nodes == 5

    (tmp_path / "pair.topo").write_text("nodes 2\n1 2\n")
    from_file = build_experiment(parse_pairs(MINIMAL + "topology = pair.topo\n"),
                                 base_dir=str(tmp_path))
    npt.assert_array_equal(from_file.topology.adjacency,
                           complete_topology(2).adjacency)


def test_explicit_combination_csv(tmp_path):
    weights = np.array([[0.15, 0.85], [0.85, 0.15]])
    np.savetxt(tmp_path / "a.csv", weights, delimiter=",")
    cfg = build_experiment(parse_pairs(MINIMAL + "a_csv = a.csv\n"),
                           base_dir=str(tmp_path))
    assert cfg.rule is None
    npt.assert_allclose(cfg.resolve_combination().weights, weights)


def test_load_experiment_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL)
    cfg = load_experiment(str(path))
    assert len(cfg.profiles) == 2
    with pytest.raises(ConfigError, match="cannot read config"):
        load_experiment(str(tmp_path / "absent.cfg"))


def _commented(text):
    """``text`` with a full-line and an indented ``#`` comment, blank lines,
    and an inline comment on each line after the first."""
    first, *rest = text.strip().splitlines()
    return "\n".join(["# full-line comment", "", first, "    # indented comment", "",
                      *(f"{ln}  # inline comment" for ln in rest), "", ""])


def _loaded(fmt, path):
    """What a file of one input format loads to: its arrays and its plain values."""
    if fmt == "edge list":
        return [load_topology(path).adjacency], []
    if fmt == "csv":
        matrix = load_combination_csv(path)
        return [matrix.weights, matrix.topology.adjacency], []
    cfg = load_experiment(str(path))
    arrays = [cfg.resolve_combination().weights, cfg.topology.adjacency,
              cfg.truth.vector, *(p.covariance for p in cfg.profiles)]
    return arrays, [[(p.step_size, p.noise_variance) for p in cfg.profiles],
                    cfg.rule, cfg.strategies, cfg.iterations, cfg.trials,
                    cfg.seed, cfg.steady_window]


@pytest.mark.parametrize("fmt, text", [
    ("config", MINIMAL + "mu = 0.1, 0.2\ntopology = line\nstrategies = atc, cta\n"
               "seed = 4\nsteady_window = 0.2\n"),
    ("edge list", "nodes 4\n1 2\n2 3\n3 4\n"),
    ("csv", "0.5,0.25,0\n0.5,0.5,0.5\n0,0.25,0.5\n"),
], ids=["config", "edge list", "csv"])
def test_comments_load_alike_in_all_three_formats(tmp_path, fmt, text):
    (tmp_path / "plain").write_text(text)
    (tmp_path / "commented").write_text(_commented(text))
    plain_arrays, plain_values = _loaded(fmt, tmp_path / "plain")
    arrays, values = _loaded(fmt, tmp_path / "commented")
    assert len(arrays) == len(plain_arrays)
    assert all(np.array_equal(a, b) for a, b in zip(arrays, plain_arrays))
    assert values == plain_values


def test_files_named_by_absolute_path_from_another_directory(tmp_path):
    data, home = tmp_path / "data", tmp_path / "configs"
    data.mkdir()
    home.mkdir()
    (data / "isolated.topo").write_text("nodes 2\n")
    weights = np.array([[0.15, 0.85], [0.85, 0.15]])
    np.savetxt(data / "a.csv", weights, delimiter=",")
    (home / "topo.cfg").write_text(MINIMAL + f"topology = {data / 'isolated.topo'}\n")
    (home / "csv.cfg").write_text(MINIMAL + f"a_csv = {data / 'a.csv'}\n")
    npt.assert_array_equal(load_experiment(str(home / "topo.cfg")).topology.adjacency,
                           np.eye(2, dtype=bool))
    npt.assert_array_equal(
        load_experiment(str(home / "csv.cfg")).resolve_combination().weights, weights)


def test_topology_path_names_a_file(tmp_path):
    # "path" is a file name like any other, not a second name for "line"
    (tmp_path / "path").write_text("nodes 2\n")
    cfg = build_experiment(parse_pairs(MINIMAL + "topology = path\n"),
                           base_dir=str(tmp_path))
    npt.assert_array_equal(cfg.topology.adjacency, np.eye(2, dtype=bool))


# ---------------------------------------------------------------- CLI level

STABLE_CFG = """
nodes = 2
dim = 1
mu = 0.04, 0.06
noise_db = -20
ru_diag = 1
iterations = 120
trials = 5
seed = 3
"""


@pytest.fixture
def stable_cfg(tmp_path):
    path = tmp_path / "stable.cfg"
    path.write_text(STABLE_CFG)
    return str(path)


@pytest.fixture
def unstable_cfg(tmp_path):
    # aggressive mixing destabilizes consensus at these step sizes
    np.savetxt(tmp_path / "hot.csv", [[0.15, 0.85], [0.85, 0.15]], delimiter=",")
    path = tmp_path / "unstable.cfg"
    path.write_text("nodes = 2\ndim = 1\nmu = 0.4, 0.6\nnoise_db = -20\n"
                    "ru_diag = 1\na_csv = hot.csv\niterations = 300\ntrials = 2\n"
                    "strategies = consensus\n")
    return str(path)


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# adaptnet ")
    return lines[1].split(","), [ln.split(",") for ln in lines[2:]]


def test_cli_analyze(stable_cfg, tmp_path, capsys):
    csv = tmp_path / "report.csv"
    assert main(["analyze", stable_cfg, "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "strategy" in out and "non_cooperative" in out
    assert "step-size bounds" in out
    assert "radius up to mu" not in out     # per-node step sizes: no common-mu bound
    header, rows = _read_csv(csv)
    assert header == ["strategy", "spectral_radius", "stable", "margin"]
    assert len(rows) == 4
    assert all(row[2] == "stable" for row in rows)


def test_cli_analyze_equality_bound_label(tmp_path, capsys):
    # uniform weights on 3 nodes: lambda_2 = 0, R_u = 1, bound (1 - 0) / (1 + 1)
    path = tmp_path / "homog.cfg"
    path.write_text("nodes = 3\ndim = 1\nmu = 0.05\nnoise_db = -20\nru_diag = 1\n")
    assert main(["analyze", str(path)]) == 0
    assert "consensus=diffusion radius up to mu = 0.5\n" in capsys.readouterr().out


def test_cli_simulate_deterministic_across_workers(stable_cfg, tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["simulate", stable_cfg, "--out", str(first)]) == 0
    assert main(["simulate", stable_cfg, "--out", str(second)]) == 0
    assert first.read_text() == second.read_text()

    threaded_cfg = tmp_path / "threaded.cfg"
    threaded_cfg.write_text(STABLE_CFG + "workers = 4\n")
    third = tmp_path / "c.csv"
    assert main(["simulate", str(threaded_cfg), "--out", str(third)]) == 0
    assert third.read_text() == first.read_text()

    header, rows = _read_csv(first)
    assert header == ["iteration", "strategy", "msd_db"]
    assert len(rows) == 120 * 4


def test_cli_simulate_normalized_peak(stable_cfg, tmp_path):
    out = tmp_path / "norm.csv"
    assert main(["simulate", stable_cfg, "--out", str(out), "--normalize"]) == 0
    _, rows = _read_csv(out)
    atc_vals = [float(r[2]) for r in rows if r[1] == "atc"]
    assert max(atc_vals) == pytest.approx(0.0, abs=1e-12)


def test_cli_simulate_divergence_note(unstable_cfg, tmp_path, capsys):
    out = tmp_path / "div.csv"
    assert main(["simulate", unstable_cfg, "--out", str(out)]) == 0
    assert "diverged in 2/2 trials" in capsys.readouterr().err
    _, rows = _read_csv(out)
    assert rows[-1][2] == "inf"


def test_cli_simulate_zero_truth_not_diverged(tmp_path, capsys):
    path = tmp_path / "zero.cfg"
    path.write_text(MINIMAL + "w0 = 0, 0\niterations = 60\ntrials = 3\n")
    assert main(["simulate", str(path), "--out", str(tmp_path / "zero.csv")]) == 0
    assert "diverged" not in capsys.readouterr().err


# a zero truth seen by noiseless nodes: every estimate stays exactly at w0,
# so every MSD, simulated and theoretical, is exactly 0, i.e. -inf dB
ZERO_CFG = """nodes = 2
dim = 2
mu = 0.1
ru_diag = 1, 2
noise_db = -inf
w0 = 0, 0
topology = full
rule = uniform
iterations = 50
trials = 2
"""


@pytest.mark.parametrize("flags", [[], ["--normalize"]])
def test_cli_simulate_writes_an_exactly_zero_msd_as_minus_inf(tmp_path, flags):
    path = tmp_path / "zero.cfg"
    path.write_text(ZERO_CFG)
    out = tmp_path / "zero.csv"
    assert main(["simulate", str(path), "--out", str(out)] + flags) == 0
    _, rows = _read_csv(out)
    assert len(rows) == 50 * 4
    assert {r[2] for r in rows} == {"-inf"}


@pytest.mark.filterwarnings("error")
def test_cli_compare_gap_of_two_exactly_zero_msds_is_zero(tmp_path, capsys):
    path = tmp_path / "zero.cfg"
    path.write_text(ZERO_CFG)
    csv = tmp_path / "zero.csv"
    assert main(["compare", str(path), "--csv", str(csv)]) == 0
    names = {k.value for k in StrategyKind}
    table = [row for row in map(str.split, capsys.readouterr().out.splitlines())
             if row[:1] and row[0] in names]
    assert len(table) == 4
    assert all(row[1:4] == ["-inf", "-inf", "0.000"] for row in table)
    _, rows = _read_csv(csv)
    assert len(rows) == 3 * 4
    assert all(r[2:] == ["-inf", "-inf", "0"] for r in rows)


def test_cli_compare(stable_cfg, tmp_path, capsys):
    csv = tmp_path / "cmp.csv"
    assert main(["compare", stable_cfg, "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "lowest theoretical network MSD" in out
    header, rows = _read_csv(csv)
    assert header == ["strategy", "node", "theory_db", "simulated_db", "gap_db"]
    # 2 per-node rows + 1 network row per strategy
    assert len(rows) == 3 * 4
    assert {r[1] for r in rows} == {"0", "1", "network"}


def test_cli_compare_ordering_flag(tmp_path, capsys):
    path = tmp_path / "homog.cfg"
    path.write_text("nodes = 3\ndim = 1\nmu = 0.05\nnoise_db = -20, -15, -25\n"
                    "ru_diag = 1\nrule = metropolis\niterations = 80\ntrials = 3\n")
    assert main(["compare", str(path), "--ordering"]) == 0
    assert "atc <= cta <= non_cooperative (network): True" in capsys.readouterr().out


def test_cli_main_calls_share_one_parser_but_no_state(tmp_path, capsys):
    # one parser per process: a later call does not inherit --ordering
    path = tmp_path / "homog.cfg"
    path.write_text("nodes = 3\ndim = 1\nmu = 0.05\nnoise_db = -20, -15, -25\n"
                    "ru_diag = 1\nrule = metropolis\niterations = 40\ntrials = 2\n")
    assert build_parser() is build_parser()
    assert main(["compare", str(path), "--ordering"]) == 0
    assert "atc <= cta" in capsys.readouterr().out
    assert main(["compare", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("strategy") and "atc <= cta" not in out
    assert "ordering" not in out


def test_cli_compare_ordering_on_heterogeneous_profiles(stable_cfg, tmp_path, capsys):
    # mu = 0.04, 0.06: the eigen route's closed forms do not apply, and the
    # flag used to be ignored without a word
    csv = tmp_path / "cmp.csv"
    assert main(["compare", stable_cfg, "--ordering", "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    line = next(ln for ln in out.splitlines() if ln.startswith("ordering not checked"))
    assert "one step size and one covariance" in line
    assert "atc <= cta" not in out
    _, rows = _read_csv(csv)
    assert len(rows) == 3 * 4


def test_cli_compare_builds_the_combination_matrix_once(tmp_path, monkeypatch):
    # theory and simulation read the one matrix resolved at construction
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_combination_matrix(*args, **kwargs)

    monkeypatch.setattr(harness, "build_combination_matrix", counted)
    path = tmp_path / "rule.cfg"
    path.write_text("nodes = 3\ndim = 1\nmu = 0.05\nnoise_db = -20, -15, -25\n"
                    "ru_diag = 1\nrule = relative_variance\niterations = 80\n"
                    "trials = 3\n")
    assert main(["compare", str(path), "--ordering"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [["analyze"], ["compare"], ["compare", "--ordering"]])
def test_cli_command_takes_one_eigvals_on_the_stack(tmp_path, monkeypatch, argv):
    # every strategy's radius comes from one eigensolve on an (S, K, n, n)
    # stack: eigvalsh on the symmetric form of ru.cfg's metropolis A, eigvals
    # on B for a non-symmetric A; other eigvals calls (the equality bound's
    # on A) are 2-D, other eigvalsh calls (on the covariance stack) 3-D
    shapes = {"eigvals": [], "eigvalsh": []}
    for name, shape_list in shapes.items():
        solver = getattr(np.linalg, name)

        def counted(a, *args, _solver=solver, _shapes=shape_list, **kwargs):
            _shapes.append(np.shape(a))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    base = ("nodes = 4\ndim = 2\nmu = 0.05\nru_matrix = 2, 0.5, 0.5, 1\n"
            "noise_db = -20\niterations = 40\ntrials = 2\nseed = 1\n")
    for network, solver in (("topology = full\nrule = metropolis\n", "eigvalsh"),
                            ("topology = line\nrule = uniform\n", "eigvals")):
        for shape_list in shapes.values():
            shape_list.clear()
        path = tmp_path / "ru.cfg"
        path.write_text(base + network)
        assert main([argv[0], str(path)] + argv[1:]) == 0
        stacks = {name: [s for s in found if len(s) == 4] for name, found in shapes.items()}
        assert len(stacks[solver]) == 1 and sum(map(len, stacks.values())) == 1, shapes
        others = {name: [len(s) for s in found if len(s) != 4] for name, found in shapes.items()}
        assert max(others["eigvals"], default=0) <= 2, shapes
        assert max(others["eigvalsh"], default=0) <= 3, shapes


def test_cli_compare_ordering_on_a_defective_matrix(tmp_path, capsys):
    # left-stochastic but not diagonalizable: the table comes from the block
    # series, while the ordering verdict needs the eigen route and is skipped
    np.savetxt(tmp_path / "defective.csv",
               [[0.5, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 1.0]], delimiter=",")
    path = tmp_path / "defective.cfg"
    path.write_text("nodes = 3\ndim = 1\nmu = 0.05\nnoise_db = -20\nru_diag = 1\n"
                    "a_csv = defective.csv\niterations = 80\ntrials = 3\n")
    csv = tmp_path / "cmp.csv"
    assert main(["compare", str(path), "--ordering", "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    line = next(ln for ln in out.splitlines() if ln.startswith("ordering not checked"))
    assert "not diagonalizable" in line
    assert "atc <= cta" not in out
    _, rows = _read_csv(csv)
    assert len(rows) == 4 * 4


def test_cli_compare_prints_noiseless_node_as_minus_inf(tmp_path, capsys):
    # node 0 has no noise, so its theory MSD is exactly 0, i.e. -inf dB
    path = tmp_path / "noiseless.cfg"
    path.write_text("nodes = 3\ndim = 1\nmu = 0.05\nnoise_db = -inf, -20, -20\n"
                    "ru_diag = 1\niterations = 80\ntrials = 3\n")
    csv = tmp_path / "noiseless.csv"
    assert main(["compare", str(path), "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    row = next(ln for ln in out.splitlines() if ln.startswith("non_cooperative"))
    assert row.split()[4] == "-inf"
    assert "+inf" not in out
    # the simulated node-0 MSD is not 0, so only one side is -inf: the gap is inf
    _, rows = _read_csv(csv)
    assert rows[0][:3] == ["non_cooperative", "0", "-inf"]
    assert float(rows[0][3]) > -np.inf and rows[0][4] == "inf"


def test_cli_compare_names_no_winner_on_a_tie(tmp_path, capsys):
    # no node has noise, so every strategy's theory MSD is exactly 0
    path = tmp_path / "silent.cfg"
    path.write_text("nodes = 3\ndim = 1\nmu = 0.05\nru_diag = 1\nnoise_db = -inf\n"
                    "topology = full\nrule = metropolis\niterations = 80\ntrials = 3\n")
    assert main(["compare", str(path)]) == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("lowest theoretical network MSD"))
    assert line == ("lowest theoretical network MSD: tie between "
                    "non_cooperative, consensus, atc, cta")


# a rule whose matrix only a cooperative strategy would read
UNREAD_RULE_CFG = """nodes = 2
dim = 1
mu = 0.1
ru_diag = 1
noise_db = -inf
topology = full
rule = relative_variance
strategies = non_cooperative
iterations = 60
trials = 2
"""


def test_cli_compare_ignores_a_rule_no_strategy_reads(tmp_path, capsys):
    # relative_variance refuses noiseless nodes, yet the non-cooperative
    # strategy never reads A, so the run matches the uniform-rule variant
    outputs = []
    for rule in ("relative_variance", "uniform"):
        path = tmp_path / f"{rule}.cfg"
        path.write_text(UNREAD_RULE_CFG.replace("relative_variance", rule))
        csv = tmp_path / f"{rule}.csv"
        assert main(["compare", str(path), "--csv", str(csv)]) == 0
        outputs.append((capsys.readouterr().out, csv.read_text()))
    assert outputs[0] == outputs[1]


def test_cli_analyze_reads_the_rule_for_all_four_strategies(tmp_path, capsys):
    # analyze reports every strategy, so the rule's matrix is built and can refuse
    path = tmp_path / "unread.cfg"
    path.write_text(UNREAD_RULE_CFG)
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == ("ConfigError: relative_variance needs positive "
                                       "noise variance, node 0 has 0.0\n")
    # and on a valid rule it reports the same as a config that selects all four
    prints = []
    for extra in ("strategies = non_cooperative\n", ""):
        path.write_text(STABLE_CFG + "rule = metropolis\n" + extra)
        assert main(["analyze", str(path)]) == 0
        prints.append(capsys.readouterr().out)
    assert prints[0] == prints[1]
    assert "consensus       : (needs" not in prints[0]


def test_cli_compare_ordering_names_a_rule_that_refuses(tmp_path, capsys):
    path = tmp_path / "unread.cfg"
    path.write_text(UNREAD_RULE_CFG)
    assert main(["compare", str(path), "--ordering"]) == 0
    assert ("ordering not checked: relative_variance needs positive noise variance"
            in capsys.readouterr().out)


def test_config_rejects_an_unknown_rule_without_a_cooperative_strategy():
    with pytest.raises(ConfigError, match="unknown combination rule 'mystery'"):
        build_experiment(parse_pairs(UNREAD_RULE_CFG.replace("relative_variance",
                                                            "mystery")))


def test_cli_compare_refuses_when_nothing_stable(unstable_cfg, capsys):
    assert main(["compare", unstable_cfg]) == 3
    err = capsys.readouterr().err
    assert "StabilityError" in err and "consensus" in err


def test_cli_compare_reports_a_refused_strategy_and_runs_the_rest(unstable_cfg, tmp_path,
                                                                 capsys):
    # acceptance 1's two-node instance: consensus is refused, the rest is compared
    path = tmp_path / "all.cfg"
    path.write_text((tmp_path / "unstable.cfg").read_text()
                    .replace("strategies = consensus\n", ""))
    csv = tmp_path / "all.csv"
    assert main(["compare", str(path), "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^consensus +unstable \(rho = 1\.\d{6}\), not simulated$", out, re.M)
    _, rows = _read_csv(csv)
    assert {row[0] for row in rows} == {"non_cooperative", "atc", "cta"}


@pytest.mark.parametrize("weights", [
    "0.6,0.2,0.1\n0.3,0.5,0.2\n0.1,0.3,0.7\n",
    "0.5,0.5000000000001\n0.5,0.4999999999999\n",
], ids=["asymmetric", "asymmetric by 1e-13"])
def test_cli_analyze_names_the_missing_consensus_bound(tmp_path, capsys, weights):
    (tmp_path / "a.csv").write_text(weights)
    path = tmp_path / "asym.cfg"
    nodes = weights.count("\n")
    path.write_text(f"nodes = {nodes}\ndim = 1\nmu = 0.05\nnoise_db = -20\nru_diag = 1\n"
                    "a_csv = a.csv\n")
    assert main(["analyze", str(path)]) == 0
    assert ("  consensus       : (needs a symmetric combination matrix)\n"
            in capsys.readouterr().out)


def test_cli_exit_code_on_bad_config(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "missing.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text(MINIMAL + "mystery = 1\n")
    assert main(["simulate", str(bad)]) == 2
    assert "ConfigError" in capsys.readouterr().err


@pytest.mark.parametrize("command, text", [
    ("simulate", MINIMAL + "seed = -1\n"),
    ("simulate", "profile = benchmark\nseed = -1\n"),
    ("analyze", MINIMAL + "ru_diag = -1, -1\n"),
], ids=["explicit-seed", "benchmark-seed", "indefinite-covariance"])
def test_cli_rejects_negative_seed_and_indefinite_covariance(tmp_path, capsys,
                                                            command, text):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert "ConfigError" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_cli_rejects_repeated_strategies(tmp_path, capsys):
    path = tmp_path / "twice.cfg"
    path.write_text(MINIMAL + "strategies = atc, atc, cta\niterations = 20\ntrials = 2\n")
    csv = tmp_path / "twice.csv"
    assert main(["compare", str(path), "--csv", str(csv)]) == 2
    captured = capsys.readouterr()
    assert "ConfigError" in captured.err and "repeat" in captured.err
    assert captured.out == ""
    assert not csv.exists()


@pytest.mark.parametrize("line", ["mu = inf", "noise_db = nan"])
def test_cli_rejects_non_finite_profile(tmp_path, capsys, line):
    path = tmp_path / "bad.cfg"
    path.write_text(MINIMAL + line + "\n")
    assert main(["analyze", str(path)]) == 2
    assert "ConfigError" in capsys.readouterr().err


def test_cli_rejects_non_finite_combination_weight(tmp_path, capsys):
    (tmp_path / "nan.csv").write_text("nan,0.5\n0.5,0.5\n")
    path = tmp_path / "nan.cfg"
    path.write_text(MINIMAL + "a_csv = nan.csv\n")
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigError: ") and "non-finite weight" in err
    assert "Traceback" not in err


def _replace_experiment(monkeypatch, run):
    monkeypatch.setattr(cli, "run_experiment", run)
    monkeypatch.setattr(cli, "steady_state_vs_theory", run)


@pytest.mark.parametrize("flag", ["simulate --out", "compare --csv"])
def test_cli_unwritable_output_path(stable_cfg, tmp_path, capsys, monkeypatch, flag):
    # the target is checked before the Monte Carlo run is paid for
    def not_run(cfg):
        raise AssertionError("experiment ran before the output path was checked")

    _replace_experiment(monkeypatch, not_run)
    command, option = flag.split()
    target = tmp_path / "missing" / "out.csv"
    assert main([command, stable_cfg, option, str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("FileNotFoundError: ") and str(target) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["simulate --out", "compare --csv"])
def test_cli_failed_run_leaves_output_path_as_it_was(stable_cfg, tmp_path, capsys,
                                                     monkeypatch, flag):
    def failed(cfg):
        raise NumericalError("run failed")

    _replace_experiment(monkeypatch, failed)
    command, option = flag.split()
    fresh = tmp_path / "fresh.csv"
    assert main([command, stable_cfg, option, str(fresh)]) == 4
    assert not fresh.exists()
    kept = tmp_path / "kept.csv"
    kept.write_text("earlier output\n")
    assert main([command, stable_cfg, option, str(kept)]) == 4
    assert kept.read_text() == "earlier output\n"
    assert "NumericalError: run failed" in capsys.readouterr().err


def test_noiseless_nodes_from_minus_inf_db():
    cfg = build_experiment(parse_pairs(MINIMAL + "noise_db = -inf\n"))
    assert all(p.noise_variance == 0.0 for p in cfg.profiles)


def test_cli_two_node_region(tmp_path, capsys):
    out = tmp_path / "region.csv"
    assert main(["two-node", "region", "--mu-sigma", "0.4",
                 "--points", "5", "--out", str(out)]) == 0
    assert "stability limit 1.6" in capsys.readouterr().err
    header, rows = _read_csv(out)
    assert header == ["a", "b", "region"]
    assert len(rows) == 25
    assert {r[2] for r in rows} <= {"I", "II", "III", "boundary", "unstable"}


def test_cli_two_node_conditions(tmp_path):
    out = tmp_path / "cond.csv"
    assert main(["two-node", "conditions", "--noise-ratio", "2.0",
                 "--points", "4", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["a", "b", "noise_shrink_psd", "strict_condition"]
    assert len(rows) == 16


def test_cli_two_node_point(capsys):
    assert main(["two-node", "point", "--a", "0.85", "--b", "0.85",
                 "--mu-sigma1", "0.4", "--mu-sigma2", "0.6"]) == 0
    out = capsys.readouterr().out
    assert "consensus smallest eigenvalue: -1.2058621384" in out
    assert "consensus unstable (a + b >= 2 - mu1*sigma1^2): True" in out
    assert "combination matrix primitive: True" in out


@pytest.mark.parametrize("a, b, p1, p2, stabilized, region", [
    (0.3, 0.7, 0.4, 2.4, True, False),     # b = 1 - a, p1 < 2 <= p2
    (0.3, 0.6, 0.4, 2.4, False, False),    # b != 1 - a
    (0.3, 0.7, 2.4, 0.4, False, False),    # node 1 the unstable one
    (0.3, 0.7, 0.4, 1.9, False, False),    # both nodes stable
    (0.3, 0.3, 0.5, 0.5, False, True),     # homogeneous, 0 < mu sigma^2 < 1
    (0.3, 0.3, 1.5, 1.5, False, False),    # homogeneous, mu sigma^2 >= 1
    (0.3, 0.3, 0.5, 0.6, False, False),    # heterogeneous
])
def test_cli_two_node_point_applicability_lines(capsys, a, b, p1, p2,
                                                stabilized, region):
    assert main(["two-node", "point", "--a", str(a), "--b", str(b),
                 "--mu-sigma1", str(p1), "--mu-sigma2", str(p2)]) == 0
    out = capsys.readouterr().out
    assert ("diffusion stable for a < " in out) is stabilized
    assert ("homogeneous MSD region: " in out) is region
    if stabilized:
        assert "diffusion stable for a < 0.8000000000 along b = 1 - a" in out
    if region:
        assert "homogeneous MSD region: I\n" in out


def test_cli_two_node_point_unstable_homogeneous_region(capsys):
    # a + b = 1.8 >= 2 - mu sigma^2 = 1.5: consensus is unstable, so the
    # region line gives the reason instead of a region
    assert main(["two-node", "point", "--a", "0.9", "--b", "0.9",
                 "--mu-sigma1", "0.5", "--mu-sigma2", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "homogeneous MSD region: unstable (consensus is unstable for a + b = 1.8" in out


def _assert_config_refusal(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigError: ")
    assert "Traceback" not in err


def test_cli_two_node_point_rejects_infinite_product(capsys):
    _assert_config_refusal(["two-node", "point", "--a", "0.5", "--b", "0.5",
                            "--mu-sigma1", "inf", "--mu-sigma2", "0.6"], capsys)


def test_cli_two_node_conditions_rejects_infinite_noise_ratio(tmp_path, capsys):
    _assert_config_refusal(["two-node", "conditions", "--noise-ratio", "inf",
                            "--points", "3", "--out", str(tmp_path / "c.csv")], capsys)
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("points", ["-3", "0"])
def test_cli_two_node_maps_reject_nonpositive_points(tmp_path, capsys, points):
    for argv in (["region", "--mu-sigma", "0.4"], ["conditions", "--noise-ratio", "2"]):
        out = tmp_path / "map.csv"
        _assert_config_refusal(["two-node", *argv, "--points", points,
                                "--out", str(out)], capsys)
        assert not out.exists()
