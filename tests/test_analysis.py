import numpy as np
import pytest

from commca import (
    CommunityLayout,
    ConstantValue,
    Graph,
    PresetValues,
    SimulationConfig,
    complete_graph,
    format_verdict,
    rac_verdict,
    run,
    spread,
    summary_lines,
)


def two_triangles_trace(rounds=60):
    """One community holding two disconnected triangles at values 1 and 2."""
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    layout = CommunityLayout([range(6)])
    init = PresetValues((1.0, 1.0, 1.0, 2.0, 2.0, 2.0))
    return run(SimulationConfig(g, layout, init, None, 0.9, rounds, 0))


def pulled_pair_trace(rounds=10):
    """Two legitimate agents at 5 dragged down by a malicious neighbor at 0."""
    g = complete_graph(3)
    layout = CommunityLayout([range(3)], malicious={2})
    init = PresetValues((5.0, 5.0, 0.0))
    return run(SimulationConfig(g, layout, init, ConstantValue(0.0), 0.5, rounds, 0))


def converging_pair_trace(rounds=70):
    g = complete_graph(2)
    layout = CommunityLayout([range(2)])
    init = PresetValues((0.0, 1.0))
    return run(SimulationConfig(g, layout, init, None, 0.9, rounds, 0))


class TestSpread:
    def test_initial_row(self):
        trace = two_triangles_trace(rounds=1)
        assert spread(trace, 0, 0) == 1.0

    def test_empty_community_spreads_zero(self):
        g = Graph(3, [(0, 1), (0, 2)])
        layout = CommunityLayout([{0, 1}, {2}], malicious={2})
        init = PresetValues((1.0, 4.0, 60.0))
        trace = run(SimulationConfig(g, layout, init, ConstantValue(60.0), 0.5, 2, 0))
        assert spread(trace, 1, 0) == 0.0


class TestAgreement:
    def test_split_community_disagrees(self):
        verdict = rac_verdict(two_triangles_trace())
        out = verdict.outcome(0)
        assert not out.agreement
        assert out.limit is None

    def test_split_community_agrees_under_loose_epsilon(self):
        verdict = rac_verdict(two_triangles_trace(), epsilon=2.0)
        assert verdict.outcome(0).agreement

    def test_window_semantics(self):
        # spread contracts by 0.8 per round from 1.0, so the last rows sit
        # below 1e-6 while earlier window members do not
        trace = converging_pair_trace(rounds=70)
        assert rac_verdict(trace, window=5).outcome(0).agreement
        assert not rac_verdict(trace, window=50).outcome(0).agreement

    def test_limit_is_mean_of_final_values(self):
        trace = converging_pair_trace(rounds=400)
        out = rac_verdict(trace).outcome(0)
        assert out.agreement
        assert out.limit == float(trace.values[-1, [0, 1]].mean())

    def test_agreement_implies_single_cluster(self):
        g = complete_graph(5)
        layout = CommunityLayout([range(5)])
        init = PresetValues((0.0, 1.0, 2.0, 3.0, 10.0))
        trace = run(SimulationConfig(g, layout, init, None, 0.9, 400, 0))
        out = rac_verdict(trace).outcome(0)
        assert out.agreement
        assert len(out.clusters) == 1
        assert out.clusters[0].members == (0, 1, 2, 3, 4)


class TestClusters:
    def test_two_value_groups(self):
        out = rac_verdict(two_triangles_trace()).outcome(0)
        assert len(out.clusters) == 2
        a, b = out.clusters
        assert a.members == (0, 1, 2) and b.members == (3, 4, 5)
        assert a.limit == pytest.approx(1.0, abs=1e-9)
        assert b.limit == pytest.approx(2.0, abs=1e-9)

    def test_clusters_partition_community(self):
        out = rac_verdict(two_triangles_trace()).outcome(0)
        seen = [u for cl in out.clusters for u in cl.members]
        assert sorted(seen) == list(range(6))

    def test_intra_cluster_spread_below_delta(self):
        trace = two_triangles_trace()
        verdict = rac_verdict(trace, delta=1e-3)
        finals = trace.final_values()
        for cl in verdict.outcome(0).clusters:
            vals = finals[list(cl.members)]
            assert vals.max() - vals.min() < 1e-3

    def test_cluster_limits_ascend(self):
        out = rac_verdict(two_triangles_trace()).outcome(0)
        limits = [cl.limit for cl in out.clusters]
        assert limits == sorted(limits)

    def test_coarse_delta_merges_everything(self):
        out = rac_verdict(two_triangles_trace(), delta=10.0).outcome(0)
        assert len(out.clusters) == 1


class TestSafety:
    def test_violation_round_and_agent(self):
        verdict = rac_verdict(pulled_pair_trace(rounds=50))
        out = verdict.outcome(0)
        assert not out.safety
        # both legitimate agents leave [5, 5] at the first update; the lower
        # agent id is reported
        assert out.first_violation == (1, 0)

    def test_safe_run_has_no_violation(self):
        out = rac_verdict(converging_pair_trace(rounds=200)).outcome(0)
        assert out.safety and out.first_violation is None

    def test_tau_tolerance_widens_interval(self):
        trace = pulled_pair_trace(rounds=50)
        assert rac_verdict(trace, tau=10.0).outcome(0).safety


class TestVerdictShape:
    def test_all_pass(self):
        assert rac_verdict(converging_pair_trace(rounds=200)).all_pass
        assert not rac_verdict(pulled_pair_trace(rounds=50)).all_pass

    def test_community_without_legitimate_members_is_vacuous(self):
        g = Graph(3, [(0, 1), (0, 2)])
        layout = CommunityLayout([{0, 1}, {2}], malicious={2})
        init = PresetValues((1.0, 4.0, 60.0))
        trace = run(
            SimulationConfig(g, layout, init, ConstantValue(60.0), 0.5, 60, 0)
        )
        out = rac_verdict(trace).outcome(1)
        assert out.agreement and out.safety
        assert out.limit is None and out.clusters == ()

    def test_parameter_validation(self):
        trace = converging_pair_trace()
        with pytest.raises(ValueError):
            rac_verdict(trace, epsilon=0.0)
        with pytest.raises(ValueError):
            rac_verdict(trace, delta=-1.0)
        with pytest.raises(ValueError):
            rac_verdict(trace, tau=-1e-9)
        with pytest.raises(ValueError):
            rac_verdict(trace, window=0)

    @pytest.mark.parametrize("name", ["epsilon", "delta", "tau"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_thresholds_rejected(self, name, value):
        with pytest.raises(ValueError, match="must be finite"):
            rac_verdict(converging_pair_trace(), **{name: value})

    def test_window_longer_than_trace_rejected(self):
        with pytest.raises(ValueError, match="window"):
            rac_verdict(converging_pair_trace(rounds=10), window=50)


class TestReporting:
    def test_summary_lines_one_based_labels(self):
        lines = summary_lines(rac_verdict(two_triangles_trace()))
        assert len(lines) == 1
        assert lines[0].startswith("community 1:")
        assert "agreement=no" in lines[0]
        assert "clusters=2" in lines[0]

    def test_summary_includes_limit_when_agreed(self):
        lines = summary_lines(rac_verdict(converging_pair_trace(rounds=400)))
        assert "agreement=yes" in lines[0]
        assert "limit=" in lines[0]

    def test_format_verdict_details(self):
        text = format_verdict(rac_verdict(pulled_pair_trace(rounds=50)))
        assert "safety: no (first violation: round 1, agent 0)" in text
        assert "cluster 1:" in text

    def test_format_verdict_parameters_line(self):
        text = format_verdict(rac_verdict(converging_pair_trace(rounds=400)))
        assert text.startswith("parameters:")
        assert "window=50" in text
        assert "hull=legitimate" in text
