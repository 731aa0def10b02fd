"""SON coordinator tests: coloring, power adjustment, admission, replay."""

import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import band_oracle
from femtosim import son
from femtosim.channel import PropagationParams, link_coefficients
from femtosim.son import (
    SonEventKind,
    SonEventLog,
    admit_fap,
    adjust_power,
    assign_uniform_random_colors,
    configure_frequencies,
    noncochannel_fraction,
    replay,
    same_color_conflicts,
)
from femtosim.spectrum import (
    EDGE_COLORS,
    Band,
    EdgeChoice,
    FemtoAllocation,
    Scheme,
    UeRegion,
    build_plan,
)
from femtosim.topology import (
    Deployment,
    DeploymentParams,
    NeighborGraph,
    Scenario,
    apply_plan,
    earlier_neighbors,
    generate,
    neighbor_graph,
)

TOTAL = Band(0, 60_000_000)
PLAN = build_plan(Scheme.DYNAMIC_REUSE, TOTAL, 3)


def _deployment_from_layout(positions):
    """Small handcrafted deployment around the sector-0 axis."""
    dep = Deployment(DeploymentParams(n_faps=len(positions)))
    dep.extend(positions)
    apply_plan(dep, PLAN)
    return dep


def _set_edge_color(dep, fid, plan, color):
    """Give FAP ``fid`` its sector's center band plus the edge band ``color``."""
    dep.assign(plan, list(EdgeChoice).index(color), [fid])


def _graph(dep, radius=100.0):
    return neighbor_graph(dep, radius)


def _adjacency(graph):
    """The graph as {id: set of neighbor ids}."""
    return {i: set(graph.neighbors(i).tolist()) for i in range(graph.n_faps)}


def _csr(adjacency, radius=100.0):
    """NeighborGraph over ids 0..n-1 from {id: set of neighbor ids}."""
    rows = [sorted(adjacency[i]) for i in range(len(adjacency))]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = np.array([j for r in rows for j in r], dtype=np.int32)
    return NeighborGraph(indptr=indptr, indices=indices, neighbor_radius=radius)


def _assert_positions_match_faps(dep):
    expected = np.array([f.position for f in dep.faps]).reshape(-1, 2)
    assert [f.id for f in dep.faps] == list(range(len(dep.faps)))
    assert dep.positions().tobytes() == expected.tobytes()


def _adjust(dep, ue, master=0, params=PropagationParams(), **kwargs):
    """``adjust_power`` for a UE at ``ue`` served by ``master`` on the edge
    region; returns the events it logged, its only report."""
    log = SonEventLog()
    assert adjust_power(dep, master, ue, UeRegion.EDGE, params, log=log, **kwargs) is None
    return log.events


def _admit(dep, position, graph):
    """``admit_fap`` into a log; returns the events it logged."""
    log = SonEventLog()
    assert admit_fap(dep, position, PLAN, graph, log) is None
    return log.events


def _min_conflicts_brute_force(adjacency):
    """Exhaustive minimum same-color pair count over all 3^n assignments."""
    ids = sorted(adjacency)
    edges = [(a, b) for a in ids for b in adjacency[a] if a < b]
    best = len(edges) + 1
    for combo in itertools.product(range(3), repeat=len(ids)):
        coloring = dict(zip(ids, combo))
        conflicts = sum(1 for a, b in edges if coloring[a] == coloring[b])
        best = min(best, conflicts)
    return best


class TestConfigureFrequencies:
    def test_triangle_three_distinct_colors(self):
        dep = _deployment_from_layout([(200, 0), (210, 0), (205, 8)])
        graph = _graph(dep)
        state = configure_frequencies(dep, graph, PLAN)
        assert len(set(state.colors.values())) == 3
        assert state.conflicts == set()

    def test_four_clique_min_one_conflict(self):
        dep = _deployment_from_layout([(200, 0), (210, 0), (205, 8), (205, -8)])
        graph = _graph(dep)
        assert _min_conflicts_brute_force(_adjacency(graph)) == 1  # enumeration oracle
        log = SonEventLog()
        state = configure_frequencies(dep, graph, PLAN, log=log)
        assert len(state.conflicts) == 1
        conflict_events = [e for e in log.events if e.kind is SonEventKind.COLOR_CONFLICT]
        assert len(conflict_events) == 1

    def test_path_graph_zero_conflicts(self):
        positions = [(200 + 90 * i, 0) for i in range(8)]
        dep = _deployment_from_layout(positions)
        graph = _graph(dep)
        assert all(len(v) <= 2 for v in _adjacency(graph).values())
        state = configure_frequencies(dep, graph, PLAN)
        assert state.conflicts == set()

    def test_conflicts_match_recomputation(self):
        dep = generate(Scenario.D, DeploymentParams(n_faps=500), seed=6)
        apply_plan(dep, PLAN)
        graph = _graph(dep)
        state = configure_frequencies(dep, graph, PLAN)
        assert state.conflicts == same_color_conflicts(graph, state.colors)
        # colors were written into the allocations
        for f in dep.faps:
            assert f.allocation.edge_choice is state.colors[f.id]

    def test_wrong_scheme_rejected(self):
        dep = _deployment_from_layout([(200, 0)])
        flat = build_plan(Scheme.SAME, TOTAL, 3)
        with pytest.raises(ValueError):
            configure_frequencies(dep, _graph(dep), flat)

    def test_uncovered_fap_rejected(self):
        dep = _deployment_from_layout([(200, 0), (210, 0)])
        bad_graph = _csr({0: set()})
        with pytest.raises(ValueError):
            configure_frequencies(dep, bad_graph, PLAN)

    def test_beats_random_assignment(self):
        dep = generate(Scenario.D, DeploymentParams(n_faps=1000), seed=66)
        apply_plan(dep, PLAN)
        graph = _graph(dep)
        greedy = len(configure_frequencies(dep, graph, PLAN).conflicts)
        rng = np.random.default_rng(99)
        random_counts = [
            len(assign_uniform_random_colors(dep, graph, PLAN, rng).conflicts)
            for _ in range(5)
        ]
        assert greedy <= min(random_counts)

    @given(n=st.integers(4, 40), seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_paths_and_even_cycles_zero_conflicts(self, n, seed):
        # with max degree <= 2 every vertex sees at most two earlier colors,
        # so a third color is always free (trees with hubs can conflict: a
        # degree-3+ vertex may follow three distinctly-colored neighbors)
        rng = np.random.default_rng(seed)
        if n % 2:
            n += 1
        if rng.random() < 0.5:
            adjacency = {i: {(i - 1) % n, (i + 1) % n} for i in range(n)}  # even cycle
        else:
            adjacency = {i: set() for i in range(n)}  # path
            for i in range(1, n):
                adjacency[i].add(i - 1)
                adjacency[i - 1].add(i)
        spacing = 400.0  # non-neighbors geometrically, graph passed explicitly
        dep = _deployment_from_layout([(200 + spacing * i, 0) for i in range(n)])
        graph = _csr(adjacency)
        state = configure_frequencies(dep, graph, PLAN)
        assert state.conflicts == set()

    def test_coloring_floor_on_dense_graph(self):
        # after coloring, at least 2/3 of ordered neighbor pairs are
        # non-co-channel, beating the uniform-random baseline
        dep = generate(Scenario.D, DeploymentParams(n_faps=1000), seed=13)
        apply_plan(dep, PLAN)
        graph = _graph(dep)
        configure_frequencies(dep, graph, PLAN)
        colored = noncochannel_fraction(dep, graph)
        rng = np.random.default_rng(7)
        assign_uniform_random_colors(dep, graph, PLAN, rng)
        baseline = noncochannel_fraction(dep, graph)
        assert colored >= 2 / 3
        assert colored > baseline

    def test_noncochannel_fraction_rejects_unallocated_pairs(self):
        dep = _deployment_from_layout([(200, 0)])
        dep.extend((230.0, 0.0))  # after the plan: no allocation
        graph = _graph(dep)
        with pytest.raises(ValueError, match="allocation"):
            noncochannel_fraction(dep, graph)

    @pytest.mark.parametrize("graph_faps", [200, 400])
    def test_graph_of_another_deployment_size_rejected(self, graph_faps):
        # a 200-FAP graph used to give a 400-FAP deployment a fraction over
        # the wrong pairs, and a 400-FAP graph a 200-FAP one an IndexError
        dep = apply_plan(generate(Scenario.D, DeploymentParams(n_faps=300), seed=3), PLAN)
        configure_frequencies(dep, _graph(dep), PLAN)
        edges = dep.edges().copy()
        other = _graph(generate(Scenario.D, DeploymentParams(n_faps=graph_faps), seed=3))
        rng = np.random.default_rng(1)
        for call in (lambda: configure_frequencies(dep, other, PLAN),
                     lambda: assign_uniform_random_colors(dep, other, PLAN, rng),
                     lambda: son.assign_shared_edge(dep, other, PLAN),
                     lambda: noncochannel_fraction(dep, other)):
            with pytest.raises(ValueError, match=f"covers {graph_faps} FAPs, the deployment has"):
                call()
        assert dep.edges().tolist() == edges.tolist()
        assert rng.integers(0, 3, size=8).tolist() == np.random.default_rng(1).integers(
            0, 3, size=8).tolist()


class TestAllocationIsTheEdgeIndexUnderThePlan:
    """After every pass that writes allocations, each FAP holds its sector's
    center band under the plan plus the edge color that pass gave it."""

    @staticmethod
    def _assert_allocations(dep, plan, colors):
        assert len(colors) == len(dep.faps)
        for f in dep.faps:
            s = f.sector_index
            assert f.allocation == FemtoAllocation(plan.center_band_per_sector[s], colors[f.id], s)

    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    def test_apply_plan(self, scheme):
        frac = 1 / 3 if scheme in (Scheme.DEDICATED, Scheme.PARTIAL) else None
        plan = build_plan(scheme, TOTAL, 3, femto_fraction=frac)
        dep = apply_plan(generate(Scenario.D, DeploymentParams(n_faps=300), seed=5), plan)
        assert dep.plan is plan
        assert {f.sector_index for f in dep.faps} == {0, 1, 2}
        self._assert_allocations(dep, plan, dict.fromkeys(range(300), EdgeChoice.NONE))

    def test_colorings(self):
        dep = apply_plan(generate(Scenario.D, DeploymentParams(n_faps=300), seed=6), PLAN)
        graph = _graph(dep)
        rng = np.random.default_rng(1)
        for coloring in (lambda: configure_frequencies(dep, graph, PLAN),
                         lambda: assign_uniform_random_colors(dep, graph, PLAN, rng),
                         lambda: son.assign_shared_edge(dep, graph, PLAN, EdgeChoice.Y)):
            self._assert_allocations(dep, PLAN, coloring().colors)

    def test_admission_and_replay(self):
        dep = apply_plan(generate(Scenario.D, DeploymentParams(n_faps=100), seed=7), PLAN)
        graph = _graph(dep)  # admission reuses it: admit_fap reads only its radius
        colors = configure_frequencies(dep, graph, PLAN).colors
        pre = copy.deepcopy(dep)
        log = SonEventLog()
        full = generate(Scenario.D, DeploymentParams(n_faps=160), seed=7)
        for p in full.positions()[100:]:
            admit_fap(dep, p, PLAN, graph, log=log)
        for ev in log.events:
            if ev.kind is SonEventKind.RECONFIGURE:
                colors[ev.subject] = EdgeChoice(ev.details["color"])
        self._assert_allocations(dep, PLAN, colors)
        # a FAP that joined but was never given a color has none
        joined = replay(copy.deepcopy(pre), log.events[:1], PLAN)
        assert joined.faps[100].allocation is None
        self._assert_allocations(replay(pre, log.events, PLAN), PLAN, colors)

    def test_admission_rejects_a_plan_without_edge_bands(self):
        same = build_plan(Scheme.SAME, TOTAL, 3)
        dep = apply_plan(generate(Scenario.D, DeploymentParams(n_faps=50), seed=3), same)
        with pytest.raises(ValueError, match="no edge bands"):
            admit_fap(dep, (500.0, 100.0), same, _graph(dep))
        assert len(dep.faps) == 50

    def test_admission_rejects_another_plan(self):
        dep = apply_plan(generate(Scenario.D, DeploymentParams(n_faps=50), seed=3), PLAN)
        other = build_plan(Scheme.DYNAMIC_REUSE, Band(0, 30_000_000), 3)
        with pytest.raises(ValueError, match="not the deployment's"):
            admit_fap(dep, (500.0, 100.0), other, _graph(dep))
        assert len(dep.faps) == 50
        admit_fap(dep, (500.0, 100.0), copy.deepcopy(PLAN), _graph(dep))  # an equal plan
        assert len(dep.faps) == 51


def _reference_configure_frequencies(deployment, adjacency, plan, log=None):
    """The dict-of-sets greedy coloring that the CSR one replaced, kept
    verbatim as a reference: same order, colors and events expected."""
    order = sorted(adjacency, key=lambda i: (-len(adjacency[i]), i))
    colors = {}
    usage = {c: 0 for c in EDGE_COLORS}
    rank = {c: i for i, c in enumerate(EDGE_COLORS)}
    for fid in order:
        neigh = [colors[n] for n in adjacency[fid] if n in colors]
        free = [c for c in EDGE_COLORS if c not in neigh]
        if free:
            color = min(free, key=lambda c: (usage[c], rank[c]))
        else:
            counts = {c: neigh.count(c) for c in EDGE_COLORS}
            color = min(EDGE_COLORS, key=lambda c: (counts[c], usage[c], rank[c]))
            if log is not None:
                partners = sorted(
                    n for n in adjacency[fid] if colors.get(n) is color
                )
                log.append(
                    SonEventKind.COLOR_CONFLICT, fid,
                    color=color.value, partners=partners,
                )
        colors[fid] = color
        usage[color] += 1
        _set_edge_color(deployment, fid, plan, color)
        if log is not None:
            log.append(SonEventKind.RECONFIGURE, fid, color=color.value)
    return colors


class TestCsrColoringMatchesReference:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n_faps", [300, 1000, 4000])
    def test_same_colors_and_events(self, n_faps, seed):
        dep = generate(Scenario.D, DeploymentParams(n_faps=n_faps), seed=seed)
        apply_plan(dep, PLAN)
        ref_dep = copy.deepcopy(dep)
        graph = _graph(dep)
        log, ref_log = SonEventLog(), SonEventLog()
        state = configure_frequencies(dep, graph, PLAN, log=log)
        ref_colors = _reference_configure_frequencies(ref_dep, _adjacency(graph), PLAN, ref_log)
        assert state.colors == ref_colors
        assert list(state.colors) == list(ref_colors)  # same greedy order
        assert log.to_lines() == ref_log.to_lines()
        assert [f.allocation for f in dep.faps] == [f.allocation for f in ref_dep.faps]
        if n_faps == 4000:
            assert any(e.kind is SonEventKind.COLOR_CONFLICT for e in log.events)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n_faps", [300, 1000])
    def test_conflicts_and_noncochannel_match_edge_loops(self, n_faps, seed):
        dep = generate(Scenario.D, DeploymentParams(n_faps=n_faps), seed=seed)
        apply_plan(dep, PLAN)
        graph = _graph(dep)
        rng = np.random.default_rng(seed)
        for color_pass in (lambda: configure_frequencies(dep, graph, PLAN),
                           lambda: assign_uniform_random_colors(dep, graph, PLAN, rng)):
            colors = dict(color_pass().colors)
            # neither an uncolored FAP nor its neighbor missing from the
            # colors conflicts with anybody
            none, missing = next(iter(graph.edges()))
            colors[none] = EdgeChoice.NONE
            del colors[missing]
            expected = {
                (a, b) for a, b in graph.edges()
                if colors.get(a, EdgeChoice.NONE) is colors.get(b, EdgeChoice.NONE)
                and colors.get(a, EdgeChoice.NONE) is not EdgeChoice.NONE
            }
            assert same_color_conflicts(graph, colors) == expected
            alloc = band_oracle.allocation_of
            for region in UeRegion:
                total = zero = 0
                for a, b in graph.edges():
                    for ref, other in ((a, b), (b, a)):
                        total += 1
                        zero += not band_oracle.x_flag(
                            PLAN, region, alloc(dep, ref), alloc(dep, other)
                        )
                assert noncochannel_fraction(dep, graph, region) == zero / total


def _loop_configure_frequencies(deployment, graph, plan, log=None):
    """The CSR greedy loop with a +1-shifted bincount and a keyed ``min`` per
    FAP, kept as a reference: same edges and events expected."""
    indptr, indices = graph.indptr.tolist(), graph.indices
    order = np.lexsort((np.arange(graph.n_faps), -np.diff(graph.indptr))).tolist()
    codes = np.full(graph.n_faps, -1, dtype=np.int8)  # index in EDGE_COLORS; -1 uncolored
    usage = [0, 0, 0]
    for fid in order:
        neigh = indices[indptr[fid]:indptr[fid + 1]]
        neigh_codes = codes[neigh]
        counts = np.bincount(neigh_codes + 1, minlength=4).tolist()[1:]
        k = min(range(3), key=lambda c: (counts[c], usage[c], c))
        color = EDGE_COLORS[k]
        if counts[k] and log is not None:
            log.append(
                SonEventKind.COLOR_CONFLICT, fid,
                color=color.value, partners=sorted(neigh[neigh_codes == k].tolist()),
            )
        codes[fid] = k
        usage[k] += 1
        if log is not None:
            log.append(SonEventKind.RECONFIGURE, fid, color=color.value)
    deployment.assign(plan, codes + 1)


class TestGreedyStepMatchesTheLoop:
    """``configure_frequencies`` gives ``_loop_configure_frequencies``'s
    edges and event lines, ties and conflicts included."""

    @staticmethod
    def _assert_same(dep):
        ref = copy.deepcopy(dep)
        graph = _graph(dep)
        log, ref_log = SonEventLog(), SonEventLog()
        configure_frequencies(dep, graph, PLAN, log=log)
        _loop_configure_frequencies(ref, graph, PLAN, ref_log)
        assert dep.edges().tolist() == ref.edges().tolist()
        assert log.to_lines() == ref_log.to_lines()
        return log

    # at a 100 m or 70 m spacing a lattice FAP's 4 or 8 lattice neighbors are
    # in range, at 50 m its 12 within two steps, at 25 m up to 48, and at 150
    # m none: degrees, counts and usage tie all over, conflicts included
    @settings(max_examples=100, deadline=None)
    @given(
        cells=st.lists(st.tuples(st.integers(0, 7), st.integers(-7, 7)),
                       min_size=1, max_size=64, unique=True),
        spacing=st.sampled_from([25.0, 50.0, 70.0, 100.0, 150.0]),
    )
    def test_lattices(self, cells, spacing):
        self._assert_same(
            _deployment_from_layout([(200.0 + spacing * i, spacing * j) for i, j in cells])
        )

    # clusters of FAPs a few meters apart among FAPs hundreds of meters from
    # any other
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(10.0, 900.0), st.floats(-600.0, 600.0)),
                    min_size=1, max_size=40))
    def test_scattered_and_isolated_faps(self, points):
        twins = [(x + 3.0, y) for x, y in points[: len(points) // 2]]
        self._assert_same(_deployment_from_layout(points + twins))

    def test_one_fap(self):
        log = self._assert_same(_deployment_from_layout([(200.0, 0.0)]))
        assert [e.kind for e in log.events] == [SonEventKind.RECONFIGURE]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_4000_faps(self, seed):
        dep = apply_plan(generate(Scenario.D, DeploymentParams(n_faps=4000), seed=seed), PLAN)
        log = self._assert_same(dep)
        assert any(e.kind is SonEventKind.COLOR_CONFLICT for e in log.events)


class TestAdjustPower:
    def _single_interferer_setup(self, interferer_distance=30.0, same_color=True):
        dep = _deployment_from_layout([(200, 0), (200 + interferer_distance, 0)])
        # force both on the same edge band so the neighbor is co-channel
        _set_edge_color(dep, 0, PLAN, EdgeChoice.X)
        _set_edge_color(dep, 1, PLAN, EdgeChoice.X if same_color else EdgeChoice.Y)
        return dep, dep.faps[0].position + np.array([5.0, 0.0])

    def test_predicted_step_count(self):
        # fading-averaged SIR gap in dB fixes the number of 1 dB steps:
        # steps = ceil(required dB reduction)
        dep, ue = self._single_interferer_setup(interferer_distance=10.0)
        params = PropagationParams()
        ref = dep.faps[0]
        _, coeffs, _, s_bar = link_coefficients(dep, ref, ue, UeRegion.EDGE, params)
        sir_db = 10 * math.log10(s_bar / coeffs.sum())
        target_db = 9.0 + 3.0
        expected_steps = math.ceil(target_db - sir_db)
        events = _adjust(dep, ue, params=params, gamma_db=9.0, margin_db=3.0)
        assert 0 < len(events) == expected_steps
        # power went down monotonically
        powers = [e.details["tx_power_w"] for e in events]
        assert all(b < a for a, b in zip(powers, powers[1:]))
        # SIR now meets the target
        _, coeffs2, _, s_bar2 = link_coefficients(dep, ref, ue, UeRegion.EDGE, params)
        assert s_bar2 / coeffs2.sum() >= 10 ** (target_db / 10)

    def test_noop_when_sir_already_met(self):
        dep, ue = self._single_interferer_setup(interferer_distance=95.0)
        events = _adjust(dep, ue, gamma_db=9.0)
        assert events == []

    def test_noop_without_cochannel_interferers(self):
        dep, ue = self._single_interferer_setup(same_color=False)
        before = [f.tx_power for f in dep.faps]
        events = _adjust(dep, ue, gamma_db=9.0)
        assert events == []
        assert [f.tx_power for f in dep.faps] == before

    def test_floor_stops_reduction(self):
        dep, ue = self._single_interferer_setup(interferer_distance=5.5)
        dep.faps[1].tx_power = 1e-4  # already at the floor
        events = _adjust(dep, ue, gamma_db=9.0, floor_w=1e-4)
        assert events == []
        assert dep.faps[1].tx_power == 1e-4

    def test_reaches_floor_and_terminates(self):
        dep, ue = self._single_interferer_setup(interferer_distance=5.5)
        events = _adjust(dep, ue, gamma_db=9.0, floor_w=1e-4)
        assert events, "a 5.5 m co-channel interferer needs reductions"
        assert dep.faps[1].tx_power == pytest.approx(1e-4)
        assert events[-1].details["tx_power_w"] == dep.faps[1].tx_power

    def test_never_increases_power(self):
        dep, ue = self._single_interferer_setup(interferer_distance=10.0)
        before = {f.id: f.tx_power for f in dep.faps}
        _adjust(dep, ue, gamma_db=9.0)
        for f in dep.faps:
            assert f.tx_power <= before[f.id]

    def test_radius_shrinks_with_power(self):
        dep, ue = self._single_interferer_setup(interferer_distance=10.0)
        r_before = dep.faps[1].radius
        events = _adjust(dep, ue, gamma_db=9.0)
        # each 1 dB step scales the radius by 10^(-1/20) for eta1 = 2
        expected = r_before * (10 ** (-1.0 / 20.0)) ** len(events)
        assert dep.faps[1].radius == pytest.approx(expected, rel=1e-9)

    def test_radius_leaving_its_domain_raises_before_the_step_writes(self):
        # from a 1.3 mm femto radius the third 1 dB step would shrink FAP 1's
        # radius below 1 mm: that step writes nothing, so the log still
        # replays to the deployment
        dep = Deployment(DeploymentParams(n_faps=2, femto_radius_m=0.0013))
        dep.extend([(300.0, 100.0), (300.0, 103.0)])
        apply_plan(dep, PLAN)
        for fid in range(2):
            _set_edge_color(dep, fid, PLAN, EdgeChoice.X)
        pre, log = copy.deepcopy(dep), SonEventLog()
        with pytest.raises(ValueError, match="FAP 1 radius must be within"):
            adjust_power(dep, 0, np.array([300.0, 101.0]), UeRegion.EDGE,
                         PropagationParams(), gamma_db=20.0, log=log)
        assert len(log.events) == 2
        replayed = replay(pre, log.events, PLAN)
        assert replayed.tx_powers().tobytes() == dep.tx_powers().tobytes()
        assert [f.radius for f in replayed.faps] == [f.radius for f in dep.faps]

    @pytest.mark.parametrize("floor_w", [0.0, -1e-4, 1e-10, math.nan, 2e3])
    def test_floor_outside_the_power_domain_rejected(self, floor_w):
        dep, ue = self._single_interferer_setup(interferer_distance=5.5)
        before = dep.tx_powers().tolist()
        with pytest.raises(ValueError, match="floor_w must be within"):
            _adjust(dep, ue, gamma_db=9.0, floor_w=floor_w)
        assert dep.tx_powers().tolist() == before

    def test_unknown_master_rejected(self):
        dep, ue = self._single_interferer_setup()
        with pytest.raises(ValueError, match="no FAP with id 2"):
            _adjust(dep, ue, master=2, gamma_db=9.0)

    def test_equal_interferers_step_lowest_id_first(self):
        # FAPs 1 and 2 sit mirror-imaged about the UE's axis, so their
        # coefficients are bitwise equal and every tie goes to the lower id
        dep = _deployment_from_layout([(200, 100), (200, 106), (200, 94), (260, 100)])
        for fid in range(4):
            _set_edge_color(dep, fid, PLAN, EdgeChoice.X)
        ue = np.array([203.0, 100.0])
        _, coeffs, _, _ = link_coefficients(dep, dep.faps[0], ue, UeRegion.EDGE,
                                            PropagationParams())
        assert coeffs[0] == coeffs[1] > coeffs[2] > 0.0
        events = _adjust(dep, ue, gamma_db=15.0)
        assert [e.subject for e in events[:4]] == [1, 2, 1, 2]
        assert {e.subject for e in events} == {1, 2}


class TestSniffedAdmission:
    """``admit_fap(..., sniffed=row)`` with the rows of ``earlier_neighbors``
    admits as ``admit_fap`` that sniffs by ``near``: same edges, same log."""

    @staticmethod
    def _assert_same(start, later, radius):
        dep = Deployment(DeploymentParams(n_faps=len(start), neighbor_radius_m=radius))
        dep.extend(start)
        apply_plan(dep, PLAN)
        graph = neighbor_graph(dep, radius)
        configure_frequencies(dep, graph, PLAN)
        ref = copy.deepcopy(dep)
        log, ref_log = SonEventLog(), SonEventLog()
        rows = earlier_neighbors(np.array([*start, *later], dtype=float), radius, len(start))
        for p, row in zip(later, rows):
            admit_fap(dep, p, PLAN, graph, log, sniffed=row)
            admit_fap(ref, p, PLAN, graph, ref_log)
        assert dep.edges().tolist() == ref.edges().tolist()
        assert log.to_lines() == ref_log.to_lines()

    # lattices at spacings about the radius, so that sniffs see up to all
    # three colors, ties and exact-r pairs included
    @settings(max_examples=60, deadline=None)
    @given(
        cells=st.lists(st.tuples(st.integers(0, 4), st.integers(-4, 4)),
                       min_size=2, max_size=45, unique=True),
        spacing=st.sampled_from([25.0, 50.0, 70.0, 100.0, 150.0]),
        split=st.integers(1, 44),
    )
    def test_lattices(self, cells, spacing, split):
        # all within the macro disc: at most 800 m by 600 m from the origin
        points = [(200.0 + spacing * i, spacing * j) for i, j in cells]
        split = min(split, len(points) - 1)
        self._assert_same(points[:split], points[split:], 100.0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.floats(10.0, 650.0), st.floats(-600.0, 600.0)),
                    min_size=2, max_size=60),
           st.sampled_from([100.0, 30.0, 1e-3, math.inf]))
    def test_scattered(self, points, radius):
        self._assert_same(points[:1], points[1:], radius)

    def test_dense_chain(self):
        full = generate(Scenario.D, DeploymentParams(n_faps=2000), seed=12).positions()
        self._assert_same(full[:500].tolist(), full[500:].tolist(), 100.0)


class TestAdmitFap:
    def test_no_neighbors_defaults_to_first_color(self):
        dep = _deployment_from_layout([(200, 0)])
        graph = _graph(dep)
        _set_edge_color(dep, 0, PLAN, EdgeChoice.X)
        events = _admit(dep, (600.0, 0.0), graph)
        new = dep.faps[-1]
        assert new.allocation.edge_choice is EdgeChoice.X
        assert [e.kind for e in events] == [SonEventKind.NEW_FAP, SonEventKind.RECONFIGURE]

    def test_two_neighbors_take_remaining_color(self):
        dep = _deployment_from_layout([(200, 0), (220, 0)])
        _set_edge_color(dep, 0, PLAN, EdgeChoice.X)
        _set_edge_color(dep, 1, PLAN, EdgeChoice.Y)
        graph = _graph(dep)
        admit_fap(dep, (210.0, 5.0), PLAN, graph)
        assert dep.faps[-1].allocation.edge_choice is EdgeChoice.Z
        _assert_positions_match_faps(dep)

    def test_minority_color_when_all_present(self):
        dep = _deployment_from_layout([(200, 0), (210, 0), (220, 0), (230, 0)])
        for fid, c in enumerate((EdgeChoice.X, EdgeChoice.X, EdgeChoice.Y, EdgeChoice.Z)):
            _set_edge_color(dep, fid, PLAN, c)
        graph = _graph(dep)
        admit_fap(dep, (215.0, 5.0), PLAN, graph)
        assert dep.faps[-1].allocation.edge_choice in (EdgeChoice.Y, EdgeChoice.Z)

    def test_new_fap_events_log_the_stored_sector(self):
        full = generate(Scenario.D, DeploymentParams(n_faps=300), seed=44)
        dep = generate(Scenario.D, DeploymentParams(n_faps=50), seed=44)
        apply_plan(dep, PLAN)
        graph = _graph(dep)
        configure_frequencies(dep, graph, PLAN)
        pre, log = copy.deepcopy(dep), SonEventLog()
        for p in full.positions()[50:]:
            admit_fap(dep, p, PLAN, graph, log)
        logged = {ev.subject: ev.details["sector"] for ev in log.events
                  if ev.kind is SonEventKind.NEW_FAP}
        assert sorted(logged) == list(range(50, 300))
        assert set(logged.values()) == {0, 1, 2}
        assert [logged[i] for i in range(50, 300)] == dep.sectors()[50:].tolist()
        assert dep.sectors().tolist() == full.sectors().tolist()
        assert replay(pre, log.events, PLAN).sectors().tolist() == dep.sectors().tolist()

    def test_existing_colors_untouched(self):
        dep = generate(Scenario.D, DeploymentParams(n_faps=200), seed=3)
        apply_plan(dep, PLAN)
        graph = _graph(dep)
        configure_frequencies(dep, graph, PLAN)
        before = {f.id: f.allocation.edge_choice for f in dep.faps}
        admit_fap(dep, (500.0, 100.0), PLAN, graph)
        after = {f.id: f.allocation.edge_choice for f in dep.faps if f.id in before}
        assert after == before

    def test_outside_disc_rejected(self):
        dep = _deployment_from_layout([(200, 0)])
        for position in ((2000.0, 0.0), (math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0)):
            with pytest.raises(ValueError, match="macro disc"):
                admit_fap(dep, position, PLAN, _graph(dep))
        assert len(dep.faps) == 1

    def test_sequential_vs_one_shot_conflicts(self):
        # admitting FAPs one at a time can never beat recoloring everything
        rng = np.random.default_rng(44)
        full = generate(Scenario.D, DeploymentParams(n_faps=120), seed=44)
        positions = [f.position for f in full.faps]
        base = _deployment_from_layout([tuple(positions[0])])
        _set_edge_color(base, 0, PLAN, EdgeChoice.X)
        radius_graph = _graph(base)  # admit_fap reads only its radius
        for p in positions[1:]:
            admit_fap(base, p, PLAN, radius_graph)
        _assert_positions_match_faps(base)
        assert base.positions().tobytes() == full.positions().tobytes()
        graph = neighbor_graph(base, 100.0)
        seq_colors = {f.id: f.allocation.edge_choice for f in base.faps}
        sequential_conflicts = len(same_color_conflicts(graph, seq_colors))

        one_shot = copy.deepcopy(base)
        state = configure_frequencies(one_shot, graph, PLAN)
        # both counts must also match brute-force conflict counting
        def brute(colors):
            count = 0
            for a, nbrs in _adjacency(graph).items():
                for b in nbrs:
                    if a < b and colors[a] is colors[b]:
                        count += 1
            return count

        assert sequential_conflicts == brute(seq_colors)
        assert len(state.conflicts) == brute(state.colors)
        assert sequential_conflicts >= len(state.conflicts)


class TestEventLogAndReplay:
    def test_power_adjustment_replay_bit_exact(self):
        dep = _deployment_from_layout([(200, 0), (212, 0), (209, 6)])
        for fid, c in enumerate((EdgeChoice.X, EdgeChoice.X, EdgeChoice.X)):
            _set_edge_color(dep, fid, PLAN, c)
        pre = copy.deepcopy(dep)
        events = _adjust(dep, dep.faps[0].position + np.array([5.0, 0.0]), gamma_db=9.0)
        assert events
        replayed = replay(pre, events, PLAN)
        for f, g in zip(dep.faps, replayed.faps):
            assert f.tx_power == g.tx_power  # bit-exact
            assert f.radius == g.radius
            assert f.allocation == g.allocation

    def test_admission_replay_bit_exact(self):
        dep = _deployment_from_layout([(200, 0), (220, 0)])
        _set_edge_color(dep, 0, PLAN, EdgeChoice.X)
        _set_edge_color(dep, 1, PLAN, EdgeChoice.Y)
        graph = _graph(dep)
        pre = copy.deepcopy(dep)
        events = _admit(dep, (210.0, 5.0), graph)
        replayed = replay(pre, events, PLAN)
        assert len(replayed.faps) == len(dep.faps)
        new, new_r = dep.faps[-1], replayed.faps[-1]
        assert np.array_equal(new.position, new_r.position)
        assert new.allocation == new_r.allocation
        assert new.id == new_r.id
        _assert_positions_match_faps(replayed)
        assert replayed.positions().tobytes() == dep.positions().tobytes()

    @staticmethod
    def _new_fap_event(subject, x, y):
        log = SonEventLog()
        log.append(SonEventKind.NEW_FAP, subject, x=x, y=y, sector=0)
        return log.events

    def test_replay_rejects_new_fap_off_the_next_row(self):
        dep = _deployment_from_layout([(200, 0), (220, 0), (240, 0)])
        for subject in (7, 2):
            with pytest.raises(ValueError):
                replay(dep, self._new_fap_event(subject, 300.0, 0.0), PLAN)
        assert len(dep.faps) == 3
        _assert_positions_match_faps(dep)
        assert dep.fap_by_id(2).id == 2

    def test_replay_rejects_new_fap_outside_macro_disc(self):
        dep = _deployment_from_layout([(200, 0), (220, 0), (240, 0)])
        for x in (2000.0, math.nan):
            with pytest.raises(ValueError, match="macro disc"):
                replay(dep, self._new_fap_event(3, x, 0.0), PLAN)
        assert len(dep.faps) == 3

    def test_replay_rejects_new_fap_in_the_wrong_sector(self):
        dep = _deployment_from_layout([(200, 0), (220, 0), (240, 0)])
        events = _admit(copy.deepcopy(dep), (300.0, 10.0), _graph(dep))
        assert events[0].details["sector"] == 0
        edited = son.SonEvent.from_line(events[0].to_line().replace('"sector": 0', '"sector": 2'))
        assert edited.details["sector"] == 2
        with pytest.raises(ValueError):
            replay(dep, [edited], PLAN)
        assert len(dep.faps) == 3
        replay(dep, events, PLAN)
        assert dep.faps[3].sector_index == 0

    def test_actions_log_exactly_what_replay_needs(self):
        # admission and power control return None and report only through
        # the log, and its exported lines alone rebuild every FAP column
        dep = apply_plan(generate(Scenario.D, DeploymentParams(n_faps=2000), seed=8), PLAN)
        graph = _graph(dep)
        configure_frequencies(dep, graph, PLAN)
        pre, log = copy.deepcopy(dep), SonEventLog()
        for p in generate(Scenario.D, DeploymentParams(n_faps=2050), seed=8).positions()[2000:]:
            assert admit_fap(dep, p, PLAN, graph, log) is None
        assert [e.kind for e in log.events] == [SonEventKind.NEW_FAP,
                                                SonEventKind.RECONFIGURE] * 50
        admissions = len(log.events)
        for master in range(0, 2050, 41):
            ue = dep.faps[master].position + np.array([4.0, -3.0])
            assert adjust_power(dep, master, ue, UeRegion.EDGE, PropagationParams(),
                                gamma_db=30.0, log=log) is None
        requests = log.events[admissions:]
        assert requests
        assert all(e.kind is SonEventKind.POWER_REQUEST for e in requests)
        replayed = replay(pre, SonEventLog.from_lines(log.to_lines()).events, PLAN)
        for column in ("positions", "sectors", "edges", "tx_powers"):
            assert getattr(replayed, column)().tobytes() == getattr(dep, column)().tobytes()
        assert [f.radius for f in replayed.faps] == [f.radius for f in dep.faps]

    @pytest.mark.parametrize("field, value", [
        ("tx_power_w", -0.01), ("tx_power_w", 0.0), ("tx_power_w", math.nan),
        ("tx_power_w", 1e9), ("radius_m", -3.0), ("radius_m", 0.0), ("radius_m", math.nan),
        ("radius_m", math.inf),
    ])
    def test_power_and_radius_stay_in_their_domains(self, field, value):
        # a logged power or radius is outside input: replay writes it through
        # the FAP view, whose setters check the power and distance domains
        dep = _deployment_from_layout([(200, 0), (230, 0)])
        attribute = {"tx_power_w": "tx_power", "radius_m": "radius"}[field]
        with pytest.raises(ValueError, match=f"FAP 1 {attribute} must be within"):
            setattr(dep.faps[1], attribute, value)
        details = {"master": 0, "delta_db": 1.0, "tx_power_w": 0.005, "radius_m": 8.0}
        log = SonEventLog()
        log.append(SonEventKind.POWER_REQUEST, 1, **{**details, field: value})
        with pytest.raises(ValueError, match="must be within"):
            replay(dep, SonEventLog.from_lines(log.to_lines()).events, PLAN)
        assert 1e-9 <= dep.faps[1].tx_power <= 1e3
        assert 1e-3 <= dep.faps[1].radius <= 1e5

    def test_configure_replay_bit_exact(self):
        dep = generate(Scenario.D, DeploymentParams(n_faps=100), seed=10)
        apply_plan(dep, PLAN)
        graph = _graph(dep)
        pre = copy.deepcopy(dep)
        log = SonEventLog()
        configure_frequencies(dep, graph, PLAN, log=log)
        replayed = replay(pre, log.events, PLAN)
        for f, g in zip(dep.faps, replayed.faps):
            assert f.allocation == g.allocation

    def test_log_serialization_round_trip(self):
        dep = _deployment_from_layout([(200, 0), (230, 0)])
        for fid in range(len(dep.faps)):
            _set_edge_color(dep, fid, PLAN, EdgeChoice.X)
        ue = dep.faps[0].position + np.array([5.0, 0.0])
        log = SonEventLog()
        adjust_power(dep, 0, ue, UeRegion.EDGE, PropagationParams(), gamma_db=9.0, log=log)
        lines = log.to_lines()
        back = SonEventLog.from_lines(lines)
        assert back.events == log.events
        assert [e.seq for e in back.events] == list(range(len(back.events)))
