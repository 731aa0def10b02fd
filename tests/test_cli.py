"""CLI behavior: experiments, provenance, determinism, exit codes."""

import copy
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from femtosim import cli, son
from femtosim.cli import main
from femtosim.config import ExperimentConfig, apply_overrides
from femtosim.outage import estimate
from femtosim.spectrum import EDGE_COLORS, EdgeChoice, Scheme

FAST = [
    "--set", "n_trials=2000",
    "--set", "n_faps=60",
    "--set", "densities=20,60",
]


def _body(path):
    """CSV rows with the '#' provenance block stripped."""
    with open(path) as f:
        return [line for line in f if not line.startswith("#")]


def _run(argv):
    return main(argv)


class TestRun:
    def test_fig5_four_scheme_rows(self, tmp_path):
        out = tmp_path / "fig5.csv"
        code = _run(["run", "--experiment", "fig5", "--out", str(out), *FAST])
        assert code == 0
        body = _body(out)
        assert body[0].startswith("scheme,density,")
        labels = [line.split(",")[0] for line in body[1:]]
        assert labels == ["dedicated", "same", "partial", "dynamic"]
        assert all(line.split(",")[1] == "60" for line in body[1:])

    def test_fig6_density_grid(self, tmp_path):
        out = tmp_path / "fig6.csv"
        code = _run(["run", "--experiment", "fig6", "--out", str(out), *FAST,
                     "--set", "schemes=dedicated,dynamic"])
        assert code == 0
        body = _body(out)
        rows = [line.strip().split(",") for line in body[1:]]
        assert [(r[0], r[1]) for r in rows] == [
            ("dedicated", "20"), ("dynamic", "20"),
            ("dedicated", "60"), ("dynamic", "60"),
        ]

    def test_son_ablation_rows(self, tmp_path):
        out = tmp_path / "ablation.csv"
        code = _run(["run", "--experiment", "son-ablation", "--out", str(out), *FAST])
        assert code == 0
        labels = [line.split(",")[0] for line in _body(out)[1:]]
        assert labels == ["dynamic:greedy", "dynamic:random", "dynamic:shared"]

    def test_son_ablation_builds_one_neighbor_graph(self, tmp_path, monkeypatch):
        calls = []
        graph_builder = cli.neighbor_graph

        def counting(*args, **kwargs):
            calls.append(1)
            return graph_builder(*args, **kwargs)

        monkeypatch.setattr(cli, "neighbor_graph", counting)
        out = tmp_path / "ablation.csv"
        assert _run(["run", "--experiment", "son-ablation", "--out", str(out), *FAST]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("direction", ["nearest", "random"])
    @pytest.mark.parametrize("n_faps", [300, 1000])
    def test_son_ablation_rows_equal_fresh_estimates(self, monkeypatch, n_faps, direction):
        # the rows come from one Monte Carlo pass over the three link sets;
        # each must equal an estimate of its own made right after its coloring
        cfg = apply_overrides(ExperimentConfig(), [
            f"n_faps={n_faps}", "n_trials=3000", f"ue_direction={direction}"])
        snapshots = []
        for name in ("configure_frequencies", "assign_uniform_random_colors",
                     "assign_shared_edge"):
            def coloring(dep, *args, _color=getattr(son, name), **kwargs):
                state = _color(dep, *args, **kwargs)
                snapshots.append((dep, copy.deepcopy(dep)))
                return state
            monkeypatch.setattr(son, name, coloring)
        rows = cli._experiment_son_ablation(cfg, 1)
        plan = cfg.plan(Scheme.DYNAMIC_REUSE)
        assert len(rows) == len(snapshots) == 3
        for row, (_, colored) in zip(rows, snapshots):
            fresh = estimate(colored, 0, cfg.outage_config(), cfg.propagation(), row.seed)
            assert row.estimate == fresh  # field for field
        if n_faps == 1000:  # FAP 0 has co-channel neighbors under each coloring
            assert len({row.estimate for row in rows}) == 3
        # the deployment ends in the shared coloring
        dep, shared = snapshots[-1]
        assert dep is snapshots[0][0]
        assert dep.edges().tolist() == shared.edges().tolist()
        assert set(dep.edges().tolist()) == {list(EdgeChoice).index(EdgeChoice.X)}

    def test_son_ablation_at_20000_faps(self, tmp_path, monkeypatch):
        # keeps the large-N graph and coloring path in the suite (no timing):
        # the run must succeed, and its greedy conflicts on the first 2000
        # FAPs must match an all-pairs count
        graphs, states = [], []
        graph_builder, greedy_coloring = cli.neighbor_graph, son.configure_frequencies

        def recording_graph(dep, radius):
            graphs.append((dep.positions().copy(), radius))
            return graph_builder(dep, radius)

        def recording_coloring(*args, **kwargs):
            states.append(greedy_coloring(*args, **kwargs))
            return states[-1]

        monkeypatch.setattr(cli, "neighbor_graph", recording_graph)
        monkeypatch.setattr(son, "configure_frequencies", recording_coloring)
        out = tmp_path / "ablation.csv"
        assert _run(["run", "--experiment", "son-ablation", "--out", str(out),
                     "--set", "n_faps=20000", "--set", "n_trials=200"]) == 0
        assert len(_body(out)) == 4
        [(pos, radius)], [state] = graphs, states
        assert len(state.colors) == len(pos) == 20000

        m = 2000
        codes = np.array([EDGE_COLORS.index(state.colors[i]) for i in range(m)])
        brute = 0
        for i in range(m):
            d2 = ((pos[i] - pos[i + 1:m]) ** 2).sum(axis=1)
            brute += int((codes[i + 1:m][d2 <= radius * radius] == codes[i]).sum())
        assert brute > 0
        assert sum(1 for a, b in state.conflicts if b < m) == brute

    def test_deterministic_bodies(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert _run(["run", "--experiment", "fig5", "--out", str(a), *FAST]) == 0
        assert _run(["run", "--experiment", "fig5", "--out", str(b), *FAST]) == 0
        assert _body(a) == _body(b)
        assert a.read_text() == b.read_text()

    def test_workers_do_not_change_output(self, tmp_path):
        a, b = tmp_path / "w1.csv", tmp_path / "w8.csv"
        assert _run(["run", "--experiment", "fig5", "--out", str(a), "--workers", "1", *FAST]) == 0
        assert _run(["run", "--experiment", "fig5", "--out", str(b), "--workers", "8", *FAST]) == 0
        assert _body(a) == _body(b)

    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_workers_below_one_exit_2(self, tmp_path, capsys, workers):
        # a usage error, not a silent run on one worker
        out = tmp_path / "never.csv"
        with pytest.raises(SystemExit) as exc:
            _run(["run", "--experiment", "fig5", "--out", str(out), "--workers", workers, *FAST])
        assert exc.value.code == 2
        assert not out.exists()
        assert f"--workers: must be at least 1, got {workers}" in capsys.readouterr().err

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert _run(["run", "--experiment", "fig5", "--out", str(a), "--seed", "1", *FAST]) == 0
        assert _run(["run", "--experiment", "fig5", "--out", str(b), "--seed", "2", *FAST]) == 0
        assert _body(a) != _body(b)

    def test_provenance_header(self, tmp_path):
        out = tmp_path / "fig5.csv"
        _run(["run", "--experiment", "fig5", "--out", str(out), *FAST])
        text = out.read_text()
        assert text.startswith("# femtosim ")
        assert "# config_hash=" in text
        assert "# cfg n_trials=2000" in text
        assert "# cfg seed=" in text

    def test_validation_failure_no_output(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = _run(["run", "--experiment", "fig5", "--out", str(out),
                     "--set", "n_trials=0"])
        assert code == 2
        assert not out.exists()
        assert "invalid configuration" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        ["eta_macro=9", "gamma_db=inf", "seed=-1", "wall_loss_db=-3", "band_high_hz=5",
         "macro_radius_m=nan", "densities=0,10", "densities=-5,10", "macro_radius_m=inf",
         "fap_tx_power_w=inf", "p0_femto=inf", "wall_loss_db=inf",
         "walls_between_femtos=-1000", "walls_between_femtos=101",
         pytest.param("walls_between_femtos=1" + "0" * 400, id="walls_between_femtos=10**400"),
         "gamma_db=1e300", "gamma_db=-1e300",
         "ue_distance_m=1e-155", "ue_distance_m=1e-160", "ue_distance_m=1e-200",
         "ue_distance_m=1e-300", "macro_radius_m=1e155", "macro_radius_m=1e200",
         "macro_radius_m=1e300",
         # outside the physical domain (see topology.check_domain)
         "ue_distance_m=1e-7", "gamma_db=200", "macro_radius_m=2e5"],
    )
    def test_invalid_values_exit_2_on_validate_and_run(self, tmp_path, override):
        # values that only the parameter objects reject: run must not get as
        # far as a runtime failure (exit 1)
        assert _run(["validate", "--set", override]) == 2
        out = tmp_path / "never.csv"
        assert _run(["run", "--experiment", "fig5", "--out", str(out), *FAST,
                     "--set", override]) == 2
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("overrides, key", [
        (("seed=-1",), "seed"),
        (("ue_region=middle",), "ue_region"),
        (("ue_direction=sideways",), "ue_direction"),
        (("schemes=same,bogus",), "schemes"),
        (("wall_loss_db=-3",), "wall_loss_db"),
        (("n_faps=0",), "n_faps"),
        (("densities=0,5",), "densities"),
        (("n_sectors=2",), "n_sectors"),
        (("band_low_hz=5", "band_high_hz=5"), "band_low_hz"),
        (("band_high_hz=2",), "n_sectors"),  # fewer Hz than sectors
        (("band_high_hz=5",), "edge_split"),  # too narrow for three edge bands
        (("edge_split=1e-9",), "edge_split"),
        (("femto_fraction=1e-9",), "femto_fraction"),
        (("eta_femto=9",), "eta_femto"),
        (("ue_distance_m=1e-9",), "ue_distance_m"),
        (("n_trials=0",), "n_trials"),
        (("n_shards=0",), "n_shards"),
    ], ids=lambda v: ",".join(v) if isinstance(v, tuple) else v)
    def test_validation_error_names_its_key(self, capsys, overrides, key):
        assert _run(["validate", *[arg for pair in overrides for arg in ("--set", pair)]]) == 2
        # a whole word: eta_femto_interf does not name eta_femto
        assert re.search(rf"\b{key}\b", capsys.readouterr().err)

    @pytest.mark.parametrize("overrides", [
        ("ue_distance_m=1e-3",),
        # beside FAP 0 at 100 km the 1 mm offset is still about 7e7 ulps of
        # its coordinate, so the distance taken back from the UE is exact to
        # 2e-8 relative
        ("macro_radius_m=1e5", "reference_distance_m=1e5", "ue_distance_m=1e-3"),
    ], ids=",".join)
    def test_small_ue_distances_run(self, tmp_path, overrides):
        # the domain's smallest UE distance, 1 mm, validates and runs
        sets = [arg for override in overrides for arg in ("--set", override)]
        assert _run(["validate", *sets]) == 0
        for experiment in ("fig5", "son-ablation"):
            out = tmp_path / f"{experiment}.csv"
            assert _run(["run", "--experiment", experiment, "--out", str(out), *FAST,
                         *sets]) == 0

    @pytest.mark.parametrize("experiment", ["fig5", "son-ablation"])
    def test_ue_offset_lost_beside_the_reference_exit_2(self, tmp_path, experiment):
        # offsets far below 1 mm can be lost beside FAP 0's coordinate (5e-52
        # m beside 200 m makes the channel's d^-6 overflow); validate and run
        # both reject an offset even one ulp below the 1 mm floor
        sets = ["--set", "eta_desired=6", "--set", "macro_radius_m=1e5",
                "--set", "reference_distance_m=1e5",
                "--set", f"ue_distance_m={math.nextafter(1e-3, 0.0)!r}",
                "--set", "n_faps=300", "--set", "n_trials=2000"]
        assert _run(["validate", *sets]) == 2
        out = tmp_path / "never.csv"
        assert _run(["run", "--experiment", experiment, "--out", str(out), *sets]) == 2
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("experiment", ["fig5", "son-ablation"])
    @pytest.mark.parametrize("overrides", [
        # a UE less than 1 mm from the macro BS on some bearing
        ("reference_distance_m=1.9e-3", "femto_radius_m=1e-3", "ue_distance_m=1e-3"),
        # far below 1 mm, each of the three below would fail at run time
        # (exit 1).  The UE about 1e-95 m from the macro BS: (1e-95)^-3.5
        # overflows in link_coefficients
        ("reference_distance_m=1e-100", "ue_distance_m=1e-95"),
        # d^-eta_macro is finite, but times 1000 W and p0_macro = 1 it is not:
        # the closed form takes log(0) (exit 1 with warnings as errors)
        ("reference_distance_m=3e-88", "ue_distance_m=1e-96", "macro_tx_power_w=1000",
         "p0_macro=1"),
        # the macro coefficient, about 3e305, is finite, and times gamma = 1e6
        # in the kernel it is not (exit 1 with warnings as errors)
        ("reference_distance_m=1.7e-88", "ue_distance_m=1e-96", "gamma_db=60"),
    ], ids=",".join)
    def test_ue_beside_the_macro_bs_exit_2(self, tmp_path, experiment, overrides):
        sets = ["--set", "n_faps=300", "--set", "n_trials=2000",
                *(arg for override in overrides for arg in ("--set", override))]
        assert _run(["validate", *sets]) == 2
        out = tmp_path / "never.csv"
        assert _run(["run", "--experiment", experiment, "--out", str(out), *sets]) == 2
        assert os.listdir(tmp_path) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("experiment", ["fig5", "son-ablation"])
    def test_ue_near_the_macro_bs_runs(self, tmp_path, experiment):
        # the UE 1 mm from the macro BS, the closest the domain allows, with
        # the largest macro power, p0_macro and eta_macro: every step of the
        # macro term stays finite
        sets = ["--set", "n_faps=300", "--set", "n_trials=2000",
                "--set", "reference_distance_m=2e-3", "--set", "femto_radius_m=1e-3",
                "--set", "ue_distance_m=1e-3", "--set", "macro_tx_power_w=1000",
                "--set", "p0_macro=1", "--set", "eta_macro=6"]
        assert _run(["validate", *sets]) == 0
        out = tmp_path / f"{experiment}.csv"
        assert _run(["run", "--experiment", experiment, "--out", str(out), *sets]) == 0

    def test_wide_macro_disc_runs(self, tmp_path):
        # the domain's widest macro disc, 100 km, places, admits and runs
        override = ["--set", "macro_radius_m=1e5"]
        assert _run(["validate", *FAST, *override]) == 0
        for experiment in ("fig5", "fig6", "son-ablation"):
            out = tmp_path / f"{experiment}.csv"
            assert _run(["run", "--experiment", experiment, "--out", str(out),
                         *FAST, *override]) == 0

    def test_son_ablation_runs_below_1000_faps(self, tmp_path):
        out = tmp_path / "ablation.csv"
        assert _run(["run", "--experiment", "son-ablation", "--out", str(out),
                     "--set", "n_faps=500", "--set", "n_trials=2000"]) == 0
        assert [line.split(",")[1] for line in _body(out)[1:]] == ["500"] * 3

    def test_infinite_neighbor_radius_runs(self, tmp_path):
        # every FAP is then a neighbor of every other
        override = ["--set", "neighbor_radius_m=inf"]
        assert _run(["validate", *FAST, *override]) == 0
        for experiment in ("fig6", "son-ablation"):
            out = tmp_path / f"{experiment}.csv"
            assert _run(["run", "--experiment", experiment, "--out", str(out),
                         *FAST, *override]) == 0

    def test_unknown_experiment_rejected(self, tmp_path):
        code = _run(["run", "--experiment", "fig5", "--out", str(tmp_path / "x.csv"),
                     "--set", "n_trials=0"])
        assert code == 2

    def test_no_temp_files_left_behind(self, tmp_path):
        out = tmp_path / "fig5.csv"
        _run(["run", "--experiment", "fig5", "--out", str(out), *FAST])
        assert sorted(os.listdir(tmp_path)) == ["fig5.csv"]


class TestConfigCommands:
    def test_print_config_round_trips(self, tmp_path, capsys):
        assert _run(["print-config", "--set", "seed=123"]) == 0
        text = capsys.readouterr().out
        cfg_file = tmp_path / "replay.cfg"
        cfg_file.write_text(text)
        assert _run(["validate", "--config", str(cfg_file)]) == 0
        out = capsys.readouterr().out
        assert "config OK" in out

    def test_rerun_from_printed_config_identical(self, tmp_path, capsys):
        assert _run(["print-config", *FAST]) == 0
        text = capsys.readouterr().out
        cfg_file = tmp_path / "effective.cfg"
        cfg_file.write_text(text)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert _run(["run", "--experiment", "fig5", "--out", str(a), *FAST]) == 0
        assert _run(["run", "--experiment", "fig5", "--config", str(cfg_file),
                     "--out", str(b)]) == 0
        assert _body(a) == _body(b)

    def test_validate_bad_config(self, capsys):
        assert _run(["validate", "--set", "schemes=nope"]) == 2
        assert "invalid configuration" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert _run(["validate", "--config", "/nonexistent/path.cfg"]) == 2

    def test_unknown_key_in_set(self, capsys):
        assert _run(["validate", "--set", "bogus=1"]) == 2

    def test_removed_dense_threshold_key_rejected(self, capsys):
        assert _run(["validate", "--set", "dense_threshold=0"]) == 2
        assert "unknown key 'dense_threshold'" in capsys.readouterr().err


# each key's domain (see topology.check_domain)
DOMAINS = {
    **dict.fromkeys(["macro_radius_m", "femto_radius_m", "reference_distance_m",
                     "ue_distance_m"], (1e-3, 1e5)),
    "neighbor_radius_m": (1e-3, math.inf),
    **dict.fromkeys(["macro_tx_power_w", "fap_tx_power_w"], (1e-9, 1e3)),
    **dict.fromkeys(["p0_femto", "p0_macro"], (1e-20, 1.0)),
    **dict.fromkeys(["eta_desired", "eta_femto", "eta_macro"], (1.5, 6.0)),
    "gamma_db": (-100.0, 100.0),
    "wall_loss_db": (0.0, math.inf),
    "walls_between_femtos": (0, 100),
}
OVERRIDE_VALUES = [0, -1, 1e-300, 1e-3, 0.5, 5, 50, 300, 1000, 2000, math.nan, math.inf]


def _edges(low, high):
    """Each bound of a domain and the number just outside it: the next float,
    or the next integer of an integer domain."""
    if isinstance(low, int):
        return [low, low - 1, high, high + 1]
    return [low, math.nextafter(low, -math.inf), high, math.nextafter(high, math.inf)]


# a key with a common value, or with a bound of its domain or the float just
# outside it; a key with no numeric domain with a few valid and invalid values
VALUES = {
    **{key: OVERRIDE_VALUES + _edges(*domain) for key, domain in DOMAINS.items()},
    "n_sectors": [0, 1, 2, 3, 4, 6],
    "femto_fraction": [-0.5, 0, 0.1, 1 / 3, 0.9, 1],
    "edge_split": [-1, 0, 0.1, 0.5, 0.6],
    "ue_region": ["edge", "center", "middle"],
    "ue_direction": ["nearest", "random", "sideways"],
    "n_shards": [-2, 0, 1, 3],
}
OVERRIDES = st.sampled_from(sorted(VALUES)).flatmap(lambda key: st.tuples(
    st.just(key), st.sampled_from(VALUES[key])))


class TestValidateMatchesRun:
    @given(
        overrides=st.lists(OVERRIDES, max_size=3).map(dict),
        n_faps=st.integers(-1, 60),
        densities=st.lists(st.integers(-3, 40), min_size=1, max_size=3, unique=True).map(sorted),
        experiment=st.sampled_from(["fig5", "fig6", "son-ablation"]),
    )
    # a wall count no float holds used to validate and then exit 1 in run
    @example(overrides={"walls_between_femtos": 10**400}, n_faps=300, densities=[10, 40],
             experiment="fig5")
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_validate_accepts_iff_run_succeeds(self, overrides, n_faps, densities, experiment):
        # the overrides come last, so a drawn n_shards wins
        pairs = [
            f"n_faps={n_faps}",
            "densities=" + ",".join(map(str, densities)),
            "n_trials=200",
            "n_shards=2",
        ] + [f"{k}={v}" for k, v in overrides.items()]
        sets = [arg for pair in pairs for arg in ("--set", pair)]
        validated = _run(["validate", *sets])
        with tempfile.TemporaryDirectory() as tmp:
            ran = _run(["run", "--experiment", experiment,
                        "--out", os.path.join(tmp, "out.csv"), *sets])
        assert ran != 1
        assert (validated == 0) == (ran == 0)


# corners of the domain, each of which keeps every step finite
CORNERS = {
    "a": ["macro_radius_m=1e5", "reference_distance_m=2e-3", "ue_distance_m=1e-3",
          "femto_radius_m=1e-3", "macro_tx_power_w=1000", "p0_macro=1", "eta_macro=6",
          "gamma_db=100", "fap_tx_power_w=1e-9", "p0_femto=1e-20", "eta_desired=1.5",
          "neighbor_radius_m=1e-3"],
    "b": ["macro_radius_m=1e5", "reference_distance_m=1e5", "femto_radius_m=1e5",
          "ue_distance_m=5e4", "eta_desired=6", "eta_macro=1.5", "neighbor_radius_m=1e5"],
    "c": ["macro_radius_m=2e-3", "reference_distance_m=2e-3", "gamma_db=-100",
          "eta_desired=6"],
    "d": ["neighbor_radius_m=inf"],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("experiment", ["fig5", "fig6", "son-ablation"])
@pytest.mark.parametrize("corner", sorted(CORNERS))
def test_domain_corners_run(tmp_path, corner, experiment):
    pairs = CORNERS[corner] + ["n_faps=300", "densities=100,300", "n_trials=2000"]
    sets = [arg for pair in pairs for arg in ("--set", pair)]
    assert _run(["validate", *sets]) == 0
    out = tmp_path / f"{experiment}.csv"
    assert _run(["run", "--experiment", experiment, "--out", str(out), *sets]) == 0
    assert len(_body(out)) > 1
