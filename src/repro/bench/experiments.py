"""One entry point per paper figure (Fig. 5(a)–(h)) plus ablations.

Every function returns a filled :class:`repro.bench.harness.Experiment`.
Sizes are scaled to CPython (see DESIGN.md "Scaling policy"); set the
environment variable ``REPRO_BENCH_LARGE=1`` to extend sweeps toward the
paper's original sizes.

The *shape* expectations asserted by the benchmark suite:

- 5(a): SimProvAlg/SimProvTst ≥ ~10× faster than CflrB; CypherLite finishes
  only the smallest graphs; Cbm variants are slower than their plain
  counterparts.
- 5(b): all CFLR algorithms are flat in the selection skew ``se``.
- 5(c): runtime grows with ``λi``; SimProvTst stays fastest.
- 5(d): with pruning, runtime falls as Vsrc moves later; without, flat.
- 5(e): cr grows with α; PgSum cr ≤ pSum cr (≈ half).
- 5(f): cr grows with the number of activity types k.
- 5(g): cr grows with segment size n.
- 5(h): cr falls as |S| grows.
"""

from __future__ import annotations

import os
from typing import Any, Callable

from repro.bench.harness import Experiment, run_sweep, timed
from repro.cfl.simprov_alg import SimProvAlg
from repro.cfl.simprov_tst import SimProvTst
from repro.model.graph import ProvenanceGraph
from repro.query.cypherlite import Budget, run_query
from repro.segment.induce import similar_path_vertices
from repro.summarize.pgsum import pgsum
from repro.summarize.psum_baseline import psum_summarize
from repro.workloads.pd_generator import PdInstance, generate_pd_sized
from repro.workloads.sd_generator import (
    SD_AGGREGATION,
    SdParams,
    generate_sd,
)


def large_benches_enabled() -> bool:
    """True when REPRO_BENCH_LARGE=1 extends the sweeps."""
    return os.environ.get("REPRO_BENCH_LARGE", "") == "1"


def default_pd_sizes() -> list[int]:
    """The Fig. 5(a) x-axis, scaled for CPython.

    The size 30 point exists so the Cypher baseline has one finished entry:
    the paper's Neo4j needed ~10^3 s for Pd50, and our pure-Python evaluator
    crosses the same exponential cliff between Pd30 and Pd50 — consistent
    with the constant-factor gap between the platforms.
    """
    sizes = [30, 50, 100, 200, 500, 1000]
    if large_benches_enabled():
        sizes += [2000, 5000, 10000, 20000, 50000]
    return sizes


# ---------------------------------------------------------------------------
# Segmentation experiments
# ---------------------------------------------------------------------------


def _cypher_query_text(src: list[int], dst: list[int]) -> str:
    """The paper's handcrafted Query 1 for L(SimProv), parameterized."""
    src_ids = ", ".join(str(v) for v in src)
    dst_ids = ", ".join(str(v) for v in dst)
    return f"""
    MATCH p1 = (b:E)<-[:U|G*]-(e1:E)
    WHERE id(b) IN [{src_ids}] AND id(e1) IN [{dst_ids}]
    WITH p1
    MATCH p2 = (c:E)<-[:U|G*]-(e2:E)
    WHERE id(e2) IN [{dst_ids}]
      AND extract(x IN nodes(p1) | labels(x)[0])
        = extract(x IN nodes(p2) | labels(x)[0])
      AND extract(x IN relationships(p1) | type(x))
        = extract(x IN relationships(p2) | type(x))
    RETURN p2
    """


def _cypher_runner(graph: ProvenanceGraph, src: list[int], dst: list[int],
                   timeout: float) -> Callable[[], Any]:
    def run() -> Any:
        return run_query(graph, _cypher_query_text(src, dst),
                         Budget(timeout_seconds=timeout))
    return run


def _solver_runner(graph: ProvenanceGraph, src: list[int], dst: list[int],
                   algorithm: str, timeout: float,
                   **kwargs) -> Callable[[], Any]:
    def run() -> Any:
        return similar_path_vertices(
            graph, src, dst, algorithm, timeout_seconds=timeout, **kwargs
        )
    return run


def fig5a(sizes: list[int] | None = None, seed: int = 7,
          cypher_timeout: float = 10.0, cflr_timeout: float = 120.0,
          solver_timeout: float = 120.0, repeat: int = 1,
          include_cbm: bool = True, verbose: bool = False) -> Experiment:
    """Fig. 5(a): PgSeg runtime vs graph size N."""
    sizes = sizes if sizes is not None else default_pd_sizes()
    experiment = Experiment(
        "fig5a", "Varying Graph Size N", "N", "runtime (s)",
        metadata={"seed": seed},
    )
    instances: dict[int, PdInstance] = {
        n: generate_pd_sized(n, seed=seed) for n in sizes
    }

    def make(name: str) -> Callable[[int], Callable[[], Any]]:
        def factory(n: int) -> Callable[[], Any]:
            instance = instances[n]
            src, dst = instance.default_query()
            if name == "Cypher":
                return _cypher_runner(instance.graph, src, dst, cypher_timeout)
            if name == "CflrB":
                return _solver_runner(instance.graph, src, dst, "cflr",
                                      cflr_timeout)
            if name == "SimProvAlg":
                return _solver_runner(instance.graph, src, dst, "simprov-alg",
                                      solver_timeout)
            if name == "SimProvAlg+Cbm":
                return _solver_runner(instance.graph, src, dst, "simprov-alg",
                                      solver_timeout, set_impl="roaring")
            if name == "SimProvTst":
                return _solver_runner(instance.graph, src, dst, "simprov-tst",
                                      solver_timeout)
            if name == "SimProvTst+Cbm":
                return _solver_runner(instance.graph, src, dst, "simprov-tst",
                                      solver_timeout, set_impl="roaring")
            raise ValueError(name)
        return factory

    names = ["Cypher", "CflrB", "SimProvAlg", "SimProvTst"]
    if include_cbm:
        names += ["SimProvAlg+Cbm", "SimProvTst+Cbm"]
    run_sweep(experiment, sizes, {name: make(name) for name in names},
              repeat=repeat, verbose=verbose)
    return experiment


def fig5b(se_values: list[float] | None = None, n: int = 2000,
          seeds: tuple[int, ...] = (7, 17, 27),
          timeout: float = 120.0, repeat: int = 1,
          verbose: bool = False) -> Experiment:
    """Fig. 5(b): runtime vs input selection skew se (paper: Pd10k).

    Each point is the mean over several generator seeds: at the scaled-down
    sizes a single instance's default query is noisy (the last entities'
    ancestry depth varies a lot between instances), and the claim under test
    is about the *distribution* of graphs at each se.
    """
    se_values = se_values if se_values is not None else [1.1, 1.3, 1.5, 1.7, 1.9, 2.1]
    if large_benches_enabled():
        n = 10000
        seeds = (7,)
    experiment = Experiment(
        "fig5b", f"Varying Selection Skew se (Pd{n}, mean of {len(seeds)} seeds)",
        "se", "runtime (s)", metadata={"n": n, "seeds": seeds},
    )
    algorithms = (("CflrB", "cflr"), ("SimProvAlg", "simprov-alg"),
                  ("SimProvTst", "simprov-tst"))
    for se in se_values:
        instances = [generate_pd_sized(n, seed=seed, se=se) for seed in seeds]
        for name, algorithm in algorithms:
            samples = []
            for instance in instances:
                src, dst = instance.default_query()
                seconds, _result, _note = timed(
                    _solver_runner(instance.graph, src, dst, algorithm,
                                   timeout),
                    repeat=repeat,
                )
                if seconds is not None:
                    samples.append(seconds)
            mean = sum(samples) / len(samples) if samples else None
            experiment.record(name, se, mean)
            if verbose:
                print(f"  [fig5b] {name} @ se={se}: {mean}")
    return experiment


def fig5c(lam_values: list[float] | None = None, n: int = 2000, seed: int = 7,
          timeout: float = 120.0, repeat: int = 1,
          verbose: bool = False) -> Experiment:
    """Fig. 5(c): runtime vs activity input mean λi (paper: Pd10k)."""
    lam_values = lam_values if lam_values is not None else [1.0, 2.0, 3.0, 4.0, 5.0]
    if large_benches_enabled():
        n = 10000
    experiment = Experiment(
        "fig5c", f"Varying Activity Input λi (Pd{n})", "λi", "runtime (s)",
        metadata={"n": n, "seed": seed},
    )
    instances = {
        lam: generate_pd_sized(n, seed=seed, lam_in=lam) for lam in lam_values
    }

    def factory(algorithm: str) -> Callable[[float], Callable[[], Any]]:
        def make(lam: float) -> Callable[[], Any]:
            instance = instances[lam]
            src, dst = instance.default_query()
            return _solver_runner(instance.graph, src, dst, algorithm, timeout)
        return make

    run_sweep(experiment, lam_values, {
        "CflrB": factory("cflr"),
        "SimProvAlg": factory("simprov-alg"),
        "SimProvTst": factory("simprov-tst"),
    }, repeat=repeat, verbose=verbose)
    return experiment


def fig5d(percentiles: list[float] | None = None, n: int = 5000,
          seed: int = 7, timeout: float = 300.0, repeat: int = 1,
          verbose: bool = False) -> Experiment:
    """Fig. 5(d): early-stopping effectiveness vs Vsrc starting rank (Pd50k
    in the paper; scaled here)."""
    percentiles = percentiles if percentiles is not None else [0, 20, 40, 60, 80]
    if large_benches_enabled():
        n = 50000
    experiment = Experiment(
        "fig5d", f"Effectiveness of Early Stopping (Pd{n})",
        "Vsrc start rank (%)", "runtime (s)",
        metadata={"n": n, "seed": seed},
    )
    instance = generate_pd_sized(n, seed=seed)

    def factory(algorithm: str, prune: bool,
                ) -> Callable[[float], Callable[[], Any]]:
        def make(percent: float) -> Callable[[], Any]:
            src, dst = instance.query_at_percentile(percent)
            if algorithm == "simprov-alg":
                solver = SimProvAlg(instance.graph, src, dst, prune=prune,
                                    timeout_seconds=timeout)
            else:
                solver = SimProvTst(instance.graph, src, dst, prune=prune,
                                    timeout_seconds=timeout)
            return solver.solve
        return make

    run_sweep(experiment, percentiles, {
        "SimProvAlg": factory("simprov-alg", True),
        "SimProvAlg w/o Prune": factory("simprov-alg", False),
        "SimProvTst": factory("simprov-tst", True),
        "SimProvTst w/o Prune": factory("simprov-tst", False),
    }, repeat=repeat, skip_after_timeout=False, verbose=verbose)
    return experiment


# ---------------------------------------------------------------------------
# Summarization experiments (y = compaction ratio, not runtime)
# ---------------------------------------------------------------------------


def _cr_sweep(experiment: Experiment, x_values: list[Any],
              make_params: Callable[[Any], SdParams],
              verbose: bool = False) -> Experiment:
    for x in x_values:
        instance = generate_sd(make_params(x))
        psg = pgsum(instance.segments, SD_AGGREGATION, k=0)
        experiment.record("PGSum Alg", x, psg.compaction_ratio)
        baseline = psum_summarize(instance.segments, SD_AGGREGATION, k=0)
        experiment.record("pSum", x, baseline.compaction_ratio)
        if verbose:
            print(f"  [{experiment.experiment_id}] x={x}: "
                  f"PgSum={psg.compaction_ratio:.3f} "
                  f"pSum={baseline.compaction_ratio:.3f}")
    return experiment


def fig5e(alphas: list[float] | None = None, seed: int = 7,
          verbose: bool = False) -> Experiment:
    """Fig. 5(e): cr vs transition concentration α."""
    alphas = alphas if alphas is not None else [0.025, 0.05, 0.1, 0.25, 0.5, 1.0]
    experiment = Experiment(
        "fig5e", "Varying Concentration α", "α", "compaction ratio (cr)",
        metadata={"seed": seed},
    )
    return _cr_sweep(
        experiment, alphas,
        lambda alpha: SdParams(alpha=alpha, seed=seed),
        verbose,
    )


def fig5f(k_values: list[int] | None = None, seed: int = 7,
          verbose: bool = False) -> Experiment:
    """Fig. 5(f): cr vs number of activity types k."""
    k_values = k_values if k_values is not None else [3, 5, 10, 15, 20, 25]
    experiment = Experiment(
        "fig5f", "Varying Activity Types k", "k", "compaction ratio (cr)",
        metadata={"seed": seed},
    )
    return _cr_sweep(
        experiment, k_values,
        lambda k: SdParams(k=k, seed=seed),
        verbose,
    )


def fig5g(n_values: list[int] | None = None, seed: int = 7,
          verbose: bool = False) -> Experiment:
    """Fig. 5(g): cr vs segment size n."""
    n_values = n_values if n_values is not None else [5, 10, 20, 30, 40, 50]
    experiment = Experiment(
        "fig5g", "Varying Number of Activities n", "n", "compaction ratio (cr)",
        metadata={"seed": seed},
    )
    return _cr_sweep(
        experiment, n_values,
        lambda n: SdParams(n_activities=n, seed=seed),
        verbose,
    )


def fig5h(s_values: list[int] | None = None, seed: int = 7,
          verbose: bool = False) -> Experiment:
    """Fig. 5(h): cr vs number of segments |S| (α = 0.25 per the paper)."""
    s_values = s_values if s_values is not None else [5, 10, 20, 30, 40]
    experiment = Experiment(
        "fig5h", "Varying Number of Segments |S|", "|S|",
        "compaction ratio (cr)",
        metadata={"seed": seed, "alpha": 0.25},
    )
    return _cr_sweep(
        experiment, s_values,
        lambda s: SdParams(num_segments=s, alpha=0.25, seed=seed),
        verbose,
    )


# ---------------------------------------------------------------------------
# Ablations beyond the paper's figures
# ---------------------------------------------------------------------------


def ablation_set_impl(n: int = 2000, seed: int = 7,
                      timeout: float = 120.0, repeat: int = 1,
                      verbose: bool = False) -> Experiment:
    """Fact-set implementation ablation: set vs bitset vs roaring.

    For both solvers ``"set"`` is the numpy array kernel over the ancestry
    cone; ``"bitset"`` / ``"roaring"`` are the per-element loops over
    compressed sets — so the gap is kernel vs interpreter loop as much as
    plain vs compressed storage.
    """
    experiment = Experiment(
        "ablation-set-impl", f"Fact set implementations (Pd{n})",
        "set_impl", "runtime (s)", metadata={"n": n, "seed": seed},
    )
    instance = generate_pd_sized(n, seed=seed)
    src, dst = instance.default_query()
    for impl in ("set", "bitset", "roaring"):
        for name, algorithm in (("SimProvAlg", "simprov-alg"),
                                ("SimProvTst", "simprov-tst")):
            seconds, _result, note = timed(
                _solver_runner(instance.graph, src, dst, algorithm,
                               timeout, set_impl=impl),
                repeat=repeat,
            )
            experiment.record(name, impl, seconds, note)
            if verbose:
                print(f"  [ablation] {name}/{impl}: {seconds}")
    return experiment


def ablation_rk(seed: int = 7, verbose: bool = False) -> Experiment:
    """Provenance-type radius ablation: cr at Rk ∈ {0, 1} on Sd defaults."""
    experiment = Experiment(
        "ablation-rk", "Provenance type radius Rk", "k",
        "compaction ratio (cr)", metadata={"seed": seed},
    )
    instance = generate_sd(SdParams(seed=seed))
    for k in (0, 1):
        psg = pgsum(instance.segments, SD_AGGREGATION, k=k,
                    verify_isomorphism=False)
        experiment.record("PGSum Alg", k, psg.compaction_ratio)
        if verbose:
            print(f"  [ablation-rk] k={k}: cr={psg.compaction_ratio:.3f}")
    return experiment


ALL_EXPERIMENTS: dict[str, Callable[..., Experiment]] = {
    "fig5a": fig5a,
    "fig5b": fig5b,
    "fig5c": fig5c,
    "fig5d": fig5d,
    "fig5e": fig5e,
    "fig5f": fig5f,
    "fig5g": fig5g,
    "fig5h": fig5h,
    "ablation-set-impl": ablation_set_impl,
    "ablation-rk": ablation_rk,
}
