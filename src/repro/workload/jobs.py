"""Synthetic batch jobs and workload generation.

IRIS supports high-throughput particle-physics and astronomy pipelines:
predominantly single-node (often single-core-group) jobs with heavy-tailed
runtimes, submitted around the clock with a mild day/night cycle.  The
generator below produces such a stream deterministically from a seed, with
a :class:`WorkloadProfile` capturing the knobs that matter for energy:

* arrival rate (jobs/hour) and its diurnal modulation,
* job width distribution (cores per job),
* runtime distribution (lognormal, heavy tailed),
* per-job CPU intensity (how hard the allocated cores are actually driven,
  which is what the power model ultimately responds to).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.seeding import as_generator


@dataclass(frozen=True)
class Job:
    """A batch job.

    Attributes
    ----------
    job_id:
        Unique integer id in submission order.
    submit_time_s:
        Submission time, seconds since the start of the simulation window.
    cores:
        Number of cores requested (jobs never span nodes in this model,
        matching the high-throughput IRIS workload).
    runtime_s:
        Actual runtime once started.
    cpu_intensity:
        Average fraction of the allocated cores' capability the job drives
        (1.0 = fully compute bound); feeds the power model.
    """

    job_id: int
    submit_time_s: float
    cores: int
    runtime_s: float
    cpu_intensity: float = 1.0

    def __post_init__(self):
        if self.job_id < 0:
            raise ValueError("job_id must be non-negative")
        if self.submit_time_s < 0:
            raise ValueError("submit_time_s must be non-negative")
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        if self.runtime_s <= 0:
            raise ValueError("runtime_s must be positive")
        if not 0.0 < self.cpu_intensity <= 1.0:
            raise ValueError("cpu_intensity must be in (0, 1]")

    @property
    def core_seconds(self) -> float:
        """Requested cores multiplied by runtime."""
        return self.cores * self.runtime_s


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical description of a site's workload.

    The defaults describe a busy high-throughput site; the snapshot picks
    ``target_utilization`` with
    :func:`repro.power.calibration.utilization_for_fleet_power` so the
    simulated site lands on the measured per-node power of Table 2.
    """

    #: Long-run average fraction of the cluster's cores that should be busy.
    target_utilization: float = 0.75
    #: Amplitude of the diurnal modulation of submissions (0 = flat).
    diurnal_amplitude: float = 0.2
    #: Mean of job width (cores per job); widths are drawn geometrically.
    mean_cores_per_job: float = 4.0
    #: Median runtime in seconds and the lognormal shape (sigma).
    median_runtime_s: float = 3 * 3600.0
    runtime_sigma: float = 1.0
    #: Range of per-job CPU intensity.
    cpu_intensity_low: float = 0.7
    cpu_intensity_high: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.target_utilization <= 1.0:
            raise ValueError("target_utilization must be in (0, 1]")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.mean_cores_per_job < 1.0:
            raise ValueError("mean_cores_per_job must be at least 1")
        if self.median_runtime_s <= 0:
            raise ValueError("median_runtime_s must be positive")
        if self.runtime_sigma <= 0:
            raise ValueError("runtime_sigma must be positive")
        if not 0.0 < self.cpu_intensity_low <= self.cpu_intensity_high <= 1.0:
            raise ValueError("cpu intensity bounds must satisfy 0 < low <= high <= 1")


class JobGenerator:
    """Deterministic generator of synthetic job streams.

    Parameters
    ----------
    profile:
        Workload statistics.
    total_cores:
        Core count of the target cluster, used to size the arrival rate so
        the requested ``target_utilization`` is achievable.
    seed:
        Integer seed (identical seeds give identical workloads) or a
        ready :class:`numpy.random.Generator` for callers that manage
        their own streams; global numpy state is never touched.
    max_cores_per_job:
        Upper bound on a single job's width.  Pass the cluster's per-node
        core count when jobs must fit on one node (the default placement
        model of the scheduler); defaults to ``total_cores``.
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        total_cores: int,
        seed: int = 0,
        max_cores_per_job: int | None = None,
    ):
        if total_cores <= 0:
            raise ValueError("total_cores must be positive")
        if max_cores_per_job is not None and max_cores_per_job <= 0:
            raise ValueError("max_cores_per_job must be positive when given")
        self._profile = profile
        self._total_cores = int(total_cores)
        self._seed = seed
        self._max_cores = int(min(total_cores, max_cores_per_job or total_cores))

    @property
    def profile(self) -> WorkloadProfile:
        return self._profile

    def _arrival_rate_per_second(self) -> float:
        """Mean job arrival rate needed to hit the target utilisation.

        ``target_utilization * total_cores`` core-seconds must be delivered
        per second; each job delivers ``mean_cores * mean_runtime`` of them.
        """
        p = self._profile
        mean_runtime = p.median_runtime_s * float(np.exp(p.runtime_sigma ** 2 / 2.0))
        demanded_core_seconds_per_second = p.target_utilization * self._total_cores
        per_job = p.mean_cores_per_job * mean_runtime
        return demanded_core_seconds_per_second / per_job

    def generate(self, duration_s: float, warmup_s: float = 0.0) -> List[Job]:
        """Generate the job stream for ``[0, duration_s)``.

        ``warmup_s`` extends the stream backwards so the cluster is already
        loaded at time zero (jobs submitted during warm-up have negative
        ids' submit times clamped to zero but keep their remaining work);
        the snapshot orchestration uses a warm-up of a few mean runtimes so
        the measured day is statistically stationary.
        """
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if warmup_s < 0:
            raise ValueError("warmup_s must be non-negative")
        p = self._profile
        rng = as_generator(self._seed)
        rate = self._arrival_rate_per_second()
        window = duration_s + warmup_s
        # Thinning a Poisson stream (for the diurnal cycle) reduces its mean
        # rate by the average acceptance probability, so the stream is drawn
        # at an inflated rate such that the *post-thinning* rate equals the
        # rate the utilisation target requires.
        amplitude = p.diurnal_amplitude
        draw_rate = rate * (1.0 + amplitude)
        expected_jobs = draw_rate * window
        # Draw a generous number of inter-arrival gaps and trim to the window.
        n_draw = max(int(expected_jobs * 1.5) + 16, 16)
        gaps = rng.exponential(1.0 / draw_rate, size=n_draw)
        arrivals = np.cumsum(gaps)
        arrivals = arrivals[arrivals < window]
        # Diurnal thinning: drop a time-dependent fraction of arrivals.
        if amplitude > 0 and len(arrivals):
            hour = ((arrivals - warmup_s) % 86400.0) / 3600.0
            acceptance = (
                1.0 + amplitude * np.cos(2 * np.pi * (hour - 14.0) / 24.0)
            ) / (1.0 + amplitude)
            keep = rng.random(len(arrivals)) < acceptance
            arrivals = arrivals[keep]
        jobs: List[Job] = []
        job_id = 0
        # Loop invariants, hoisted; the per-arrival draw order below is part
        # of the seeded stream and must not change.
        geometric, lognormal, uniform = rng.geometric, rng.lognormal, rng.uniform
        # Geometric widths have mean exactly `mean_cores_per_job`.
        width_p = 1.0 / p.mean_cores_per_job
        log_median = np.log(p.median_runtime_s)
        sigma = p.runtime_sigma
        low, high = p.cpu_intensity_low, p.cpu_intensity_high
        max_cores = self._max_cores
        for submit in (arrivals - warmup_s).tolist():
            cores = int(min(geometric(width_p), max_cores))
            runtime = float(lognormal(log_median, sigma))
            runtime = max(runtime, 60.0)
            intensity = float(uniform(low, high))
            if submit < 0.0:
                # A warm-up job: only the part of it still running at time
                # zero matters.  Jobs that would have finished before the
                # window opened are dropped; the rest carry their remaining
                # runtime, which leaves the cluster in (approximately) its
                # stationary state at the start of the measured window.
                remaining = runtime + submit
                if remaining <= 0.0:
                    continue
                runtime = max(remaining, 60.0)
                submit = 0.0
            jobs.append(
                Job(
                    job_id=job_id,
                    submit_time_s=float(submit),
                    cores=cores,
                    runtime_s=runtime,
                    cpu_intensity=intensity,
                )
            )
            job_id += 1
        return jobs

    def total_core_seconds(self, jobs: Sequence[Job]) -> float:
        """Total requested core-seconds of a job list (for sanity checks)."""
        return float(sum(job.core_seconds for job in jobs))


__all__ = ["Job", "JobGenerator", "WorkloadProfile"]
