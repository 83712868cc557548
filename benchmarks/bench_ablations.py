"""Ablations beyond the paper's figures.

- Fact-set implementations (set / bitset / roaring): the Fig. 5(a) Cbm
  trade-off isolated on one instance. For both solvers ``"set"`` is the
  array kernel and ``"bitset"`` / ``"roaring"`` the per-element loop over
  compressed sets.
- Provenance-type radius Rk ∈ {0, 1}: finer types mean fewer merge
  opportunities (higher cr) — the Sec. IV "tuning the summary" knob.
- Early-stop pruning on/off on a fixed hard query (complements Fig. 5(d)).
"""

from conftest import pd_cached, print_experiment
from repro.bench.experiments import ablation_rk, ablation_set_impl
from repro.cfl.simprov_alg import SimProvAlg


class TestSetImplAblation:
    def test_set_impl_series(self, benchmark):
        holder = {}

        def run():
            holder["e"] = ablation_set_impl(n=1000)

        benchmark.pedantic(run, rounds=1, iterations=1)
        experiment = holder["e"]
        print_experiment(experiment)

        for name in ("SimProvAlg", "SimProvTst"):
            points = {p.x: p.y for p in experiment.series[name].points}
            assert set(points) == {"set", "bitset", "roaring"}
            assert all(v is not None for v in points.values())
            # Compressed bitmaps pay in time what they save in space.
            assert points["roaring"] >= points["set"] * 0.8


class TestRkAblation:
    def test_rk_series(self, benchmark):
        holder = {}

        def run():
            holder["e"] = ablation_rk()

        benchmark.pedantic(run, rounds=1, iterations=1)
        experiment = holder["e"]
        print_experiment(experiment)
        points = {p.x: p.y for p in experiment.series["PGSum Alg"].points}
        # Finer provenance types can only split classes: cr(k=1) >= cr(k=0).
        assert points[1] >= points[0]


class TestPruneAblation:
    def test_prune_speedup_on_late_source(self, benchmark):
        instance = pd_cached(2000)
        src, dst = instance.query_at_percentile(80)

        def run_both():
            pruned = SimProvAlg(instance.graph, src, dst, prune=True).solve()
            full = SimProvAlg(instance.graph, src, dst, prune=False).solve()
            return pruned, full

        pruned, full = benchmark.pedantic(run_both, rounds=1, iterations=1)
        pruned_work = pruned.stats.facts_entity + pruned.stats.facts_activity
        full_work = full.stats.facts_entity + full.stats.facts_activity
        assert pruned_work < full_work
        assert pruned.answer_pairs == full.answer_pairs
