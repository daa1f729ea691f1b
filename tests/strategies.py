"""Shared hypothesis strategies for the property-based test suite.

One home for the strategies the property files used to hand-roll
separately: scalar quantities, time-series shapes, bounded distributions,
assessment-spec scenario fields, portfolio load shares, site snapshot
configurations and mixed node fleets.  Import from here instead of redefining::

    from strategies import finite_positive, series_values, load_shares

Strategy constructors (``positive_floats``, ``load_shares``, ...) return a
fresh strategy per call so files can pin their own ranges; the module-level
names are the canonical instances most properties want.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.api.spec import AssessmentSpec
from repro.inventory.catalog import default_catalog
from repro.portfolio.spec import PortfolioMember, PortfolioSpec
from repro.snapshot.config import SiteSnapshotConfig
from repro.uncertainty.distributions import Discrete, Empirical, Triangular, Uniform
from repro.workload.cluster import SimulatedCluster, SimulatedNode
from repro.workload.jobs import Job


# -- scalar quantities ----------------------------------------------------------

def positive_floats(min_value: float = 1e-9, max_value: float = 1e12):
    """Strictly positive, finite floats in the given range."""
    return st.floats(min_value=min_value, max_value=max_value,
                     allow_nan=False, allow_infinity=False)


#: The wide canonical positive range (unit round-trips and conversions).
finite_positive = positive_floats()

#: A moderate positive range for quantities that get multiplied together.
small_positive = positive_floats(min_value=1e-3, max_value=1e6)

#: A fraction in [0, 1] (utilisation, shares, coverage).
utilization = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

#: Grid carbon intensities in g/kWh (non-negative, realistic ceiling).
intensities = st.floats(min_value=0.0, max_value=2000.0, allow_nan=False)

#: Facility PUE values (>= 1 by definition).
pues = st.floats(min_value=1.0, max_value=2.5, allow_nan=False)

#: Amortisation lifetimes in years.
lifetimes = st.floats(min_value=0.5, max_value=15.0, allow_nan=False)


# -- time series ----------------------------------------------------------------

#: Non-negative sample values for a power-like series.
series_values = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=200)

#: Realistic sampling cadences in seconds.
steps = st.sampled_from([1.0, 30.0, 60.0, 900.0, 1800.0])

#: Integer resampling factors.
factors = st.integers(min_value=1, max_value=12)

#: Non-negative intensity samples for an intensity-like series.
intensity_values = st.lists(
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    min_size=2, max_size=96)


# -- distributions --------------------------------------------------------------

#: Distributions with finite support (the quantile / support properties).
bounded_distributions = st.one_of(
    st.tuples(st.floats(-1e6, 1e6), st.floats(1e-3, 1e6)).map(
        lambda t: Uniform(t[0], t[0] + t[1])),
    st.tuples(st.floats(-1e6, 1e6), st.floats(1e-3, 1e5),
              st.floats(1e-3, 1e5)).map(
        lambda t: Triangular(t[0], t[0] + t[1], t[0] + t[1] + t[2])),
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8).map(
        lambda values: Discrete(tuple(values))),
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=16).map(
        lambda values: Empirical(tuple(values))),
)


# -- assessment specs -----------------------------------------------------------

def analysis_overrides():
    """Scenario (analysis-stage) spec fields: cheap against one substrate."""
    return st.fixed_dictionaries({
        "carbon_intensity_g_per_kwh": intensities,
        "pue": pues,
        "lifetime_years": lifetimes,
    })


@st.composite
def assessment_specs(draw, node_scale: float = 0.02, campaign_seed: int = 3):
    """Specs varying only in analysis fields over one pinned physical config.

    Every drawn spec shares the same :meth:`AssessmentSpec.physical_key`,
    so a property consuming these against one substrate cache costs one
    simulation for the whole run.
    """
    overrides = draw(analysis_overrides())
    return AssessmentSpec(node_scale=node_scale, campaign_seed=campaign_seed,
                          **overrides)


# -- portfolios -----------------------------------------------------------------

#: The stock region codes the portfolio strategies bind members to.
REGION_CODES = ("GB", "FR", "PL", "NO")


@st.composite
def load_shares(draw, size: int):
    """``size`` positive shares normalised to sum to one."""
    weights = draw(st.lists(st.floats(min_value=1e-3, max_value=1.0,
                                      allow_nan=False),
                            min_size=size, max_size=size))
    total = sum(weights)
    return [weight / total for weight in weights]


@st.composite
def portfolio_specs(draw, max_members: int = 4, node_scale: float = 0.02):
    """Small portfolio specs: distinct member names, normalised shares.

    Pure construction — no simulation — so spec round-trip properties stay
    fast.  Members draw their region bindings from :data:`REGION_CODES`
    (or keep the base grid), and analysis fields vary member to member.
    """
    size = draw(st.integers(min_value=1, max_value=max_members))
    shares = draw(load_shares(size))
    members = []
    for index in range(size):
        spec = draw(assessment_specs(node_scale=node_scale))
        region = draw(st.sampled_from(REGION_CODES + (None,)))
        members.append(PortfolioMember(
            name=f"site-{index}", spec=spec, load_share=shares[index],
            region=region))
    return PortfolioSpec(members=tuple(members),
                         name=draw(st.sampled_from(("portfolio", "estate"))))


# -- scheduler workloads --------------------------------------------------------

@st.composite
def scheduler_clusters(draw, max_nodes: int = 8, max_cores: int = 8):
    """Small heterogeneous clusters for scheduler differential properties."""
    core_counts = draw(st.lists(st.integers(min_value=1, max_value=max_cores),
                                min_size=1, max_size=max_nodes))
    return SimulatedCluster([
        SimulatedNode(index=index, node_id=f"node-{index}",
                      cores=cores, free_cores=cores)
        for index, cores in enumerate(core_counts)
    ])


@st.composite
def job_streams(draw, max_jobs: int = 30, max_cores: int = 10,
                horizon_s: float = 500.0):
    """Adversarial job lists for the scheduler engines.

    Fractional submit times (exercising the anti-stall clamp), duplicate
    submit instants, runtimes from sub-second to the full horizon, and
    widths that may exceed every node (exercising the unschedulable
    filter).
    """
    count = draw(st.integers(min_value=0, max_value=max_jobs))
    return [
        Job(
            job_id=job_id,
            submit_time_s=draw(st.floats(min_value=0.0, max_value=horizon_s,
                                         allow_nan=False)),
            cores=draw(st.integers(min_value=1, max_value=max_cores)),
            runtime_s=draw(st.floats(min_value=1e-3, max_value=horizon_s,
                                     allow_nan=False)),
            cpu_intensity=draw(st.floats(min_value=0.1, max_value=1.0,
                                         allow_nan=False)),
        )
        for job_id in range(count)
    ]


# -- site snapshot configurations ----------------------------------------------

@st.composite
def site_snapshot_configs(draw, site: str = "SITE"):
    """Valid per-site snapshot configurations for config-layer properties."""
    return SiteSnapshotConfig(
        site=site,
        node_count=draw(st.integers(min_value=1, max_value=64)),
        storage_fraction=draw(st.floats(min_value=0.0, max_value=0.5,
                                        allow_nan=False)),
        measurement_methods=tuple(draw(st.sets(
            st.sampled_from(("facility", "pdu", "ipmi", "turbostat")),
            min_size=1, max_size=4))),
        default_utilization=draw(st.floats(min_value=0.05, max_value=1.0,
                                           allow_nan=False)),
        ipmi_node_coverage=draw(st.floats(min_value=0.1, max_value=1.0,
                                          allow_nan=False)),
        workload_seed=draw(st.integers(min_value=0, max_value=2**16)),
    )


# -- mixed node fleets ----------------------------------------------------------

@st.composite
def mixed_fleets(draw, max_runs: int = 3, max_count: int = 40):
    """A fleet as ordered ``(NodeSpec, count)`` runs from the stock catalog.

    One to ``max_runs`` runs; neighbouring runs may share a spec (a site
    whose compute model is its storage model) and any run may be empty (a
    site with no storage nodes), but the fleet always has a node.
    """
    catalog = default_catalog()
    size = draw(st.integers(min_value=1, max_value=max_runs))
    specs = [catalog.node(draw(st.sampled_from(catalog.node_models)))
             for _ in range(size)]
    counts = draw(st.lists(st.integers(min_value=0, max_value=max_count),
                           min_size=size, max_size=size))
    if sum(counts) == 0:
        counts[0] = 1
    return list(zip(specs, counts))


#: Per-node wall-power targets in watts: spans below every stock model's
#: idle draw (~67 W) to above every model's maximum (~711 W).
fleet_power_targets = st.floats(min_value=0.0, max_value=1000.0,
                                allow_nan=False)


__all__ = [
    "REGION_CODES",
    "analysis_overrides",
    "assessment_specs",
    "bounded_distributions",
    "factors",
    "finite_positive",
    "fleet_power_targets",
    "intensities",
    "intensity_values",
    "job_streams",
    "lifetimes",
    "load_shares",
    "mixed_fleets",
    "portfolio_specs",
    "positive_floats",
    "pues",
    "scheduler_clusters",
    "series_values",
    "site_snapshot_configs",
    "small_positive",
    "steps",
    "utilization",
]
