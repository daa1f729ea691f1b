"""Seeded input streams for every workload.

The benchmark's ``--seed`` reaches the program only through these
generators: the same seed yields the same stream of spec documents, and the
seed changes values (campaign seeds, scenario fields, the order of requests)
but never how much work an op does.  Nothing here imports ``repro``; specs
are plain ``AssessmentSpec`` field dictionaries.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Set

#: Fleet scale of every simulated configuration: a cold op is ~0.5 s, so a
#: run holds dozens of samples, and layer shares match full scale.
NODE_SCALE = 0.1

#: Points per axis of the warm session's sweep (a 10 x 10 grid).
SWEEP_AXIS_POINTS = 10

#: Samples of the warm session's in-process ensemble.
SESSION_ENSEMBLE_SAMPLES = 2000

#: Samples of a served ``/uncertainty`` request.
SERVE_ENSEMBLE_SAMPLES = 1000

#: How many of the most recently simulated configurations live serve
#: requests draw from.  Far below the server's substrate-cache bound, so a
#: live request never finds its substrate evicted.
SERVE_RECENT_CONFIGS = 4


def _scenario(rng: random.Random) -> Dict[str, float]:
    """Scenario fields: they change the analysis inputs, not its cost."""
    return {
        "carbon_intensity_g_per_kwh": round(rng.uniform(40.0, 400.0), 4),
        "pue": round(rng.uniform(1.05, 1.9), 6),
        "lifetime_years": round(rng.uniform(3.0, 8.0), 4),
    }


class _SeedDraw:
    """Campaign seeds, never the same twice in one stream."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._used: Set[int] = set()

    def __call__(self) -> int:
        while True:
            value = self._rng.randrange(1, 2**31 - 1)
            if value not in self._used:
                self._used.add(value)
                return value


def cold_assess_specs(seed: int) -> Iterator[Dict[str, object]]:
    """One spec per cold op: a new physical key (campaign seed) every time."""
    rng = random.Random(f"cold_assess:{seed}")
    campaign_seed = _SeedDraw(rng)
    while True:
        yield dict(node_scale=NODE_SCALE, campaign_seed=campaign_seed(),
                   **_scenario(rng))


def warm_session_config(seed: int) -> Dict[str, object]:
    """The one physical configuration every warm session runs against."""
    rng = random.Random(f"warm_config:{seed}")
    return {"node_scale": NODE_SCALE, "campaign_seed": _SeedDraw(rng)()}


def warm_sessions(seed: int) -> Iterator[Dict[str, object]]:
    """One analyst session per op, all over :func:`warm_session_config`."""
    physical = warm_session_config(seed)
    rng = random.Random(f"warm_session:{seed}")
    while True:
        temporal = dict(physical, **_scenario(rng))
        temporal["shift_hours"] = rng.randint(2, 48) / 4.0
        yield {
            "assess": dict(physical, **_scenario(rng)),
            "sweep": {
                "pue": sorted(round(rng.uniform(1.05, 1.9), 6)
                              for _ in range(SWEEP_AXIS_POINTS)),
                "intensity": sorted(round(rng.uniform(40.0, 400.0), 4)
                                    for _ in range(SWEEP_AXIS_POINTS)),
            },
            "temporal": temporal,
            "ensemble": {"spec": dict(physical, **_scenario(rng)),
                         "n_samples": SESSION_ENSEMBLE_SAMPLES,
                         "seed": rng.randrange(0, 2**31 - 1)},
        }


# -- serve_http ------------------------------------------------------------------

#: Op classes of the serve mix, and the source header each must carry.
CATALOG_READ = "catalog_read"
LIVE_ASSESS = "live_assess"
LIVE_TEMPORAL = "live_temporal"
LIVE_UNCERTAINTY = "live_uncertainty"
NEW_CONFIG = "new_config"

EXPECTED_SOURCE = {
    CATALOG_READ: "catalog",
    LIVE_ASSESS: "live",
    LIVE_TEMPORAL: "live",
    LIVE_UNCERTAINTY: "live",
    NEW_CONFIG: "live",
}


@dataclass(frozen=True)
class Request:
    """One HTTP request of the serve mix."""

    cls: str
    path: str
    doc: Dict[str, object]

    @property
    def key(self) -> str:
        """Identity of the answer: path plus canonical document."""
        return self.path + " " + json.dumps(self.doc, sort_keys=True)

    @property
    def expected_source(self) -> str:
        return EXPECTED_SOURCE[self.cls]


@dataclass
class Round:
    """One closed-loop round of the two serve clients.

    Both clients first send one request of ``pair`` at the same moment
    (two different documents on one new physical configuration, which
    must coalesce onto one simulation), then each works through its own
    list in ``clients``.
    """

    pair: List[Request]
    clients: List[List[Request]] = field(default_factory=list)

    def requests(self) -> List[Request]:
        return list(self.pair) + [r for ops in self.clients for r in ops]


class ServeRounds:
    """The seeded request stream of ``serve_http``.

    Each round holds 10 requests: a new-config pair (20%), three catalog
    repeats (30%), four live ``/assess`` (40%) and one live ``/temporal``
    or ``/uncertainty``, alternating by round (5% each).  Ordered by
    cost — catalog read ~2 ms, live assess ~5 ms, live uncertainty ~7 ms,
    live temporal ~60 ms, new config ~0.5 s — the classes occupy the
    percentile bands 0-30, 30-70, 70-75, 75-80 and 80-100, so the median
    sits 20 points from the nearest boundary and a tail above p90 sits in
    the new-config band.

    Repeats only name documents of earlier rounds (or of setup), so every
    one of them has been answered, and catalogued, before it is sent.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(f"serve_http:{seed}")
        self._campaign_seed = _SeedDraw(self._rng)
        self._seen: Set[str] = set()
        self._answered: List[Request] = []
        self.warm_config = self._new_config()
        self._recent: List[Dict[str, object]] = [self.warm_config]
        self.rounds_made = 0

    def _new_config(self) -> Dict[str, object]:
        return {"node_scale": NODE_SCALE,
                "campaign_seed": self._campaign_seed()}

    def _fresh(self, cls: str, path: str, make) -> Request:
        """A request no earlier request of the stream has named."""
        while True:
            request = Request(cls, path, make())
            if request.key not in self._seen:
                self._seen.add(request.key)
                return request

    def _live(self, cls: str) -> Request:
        config = self._rng.choice(self._recent[-SERVE_RECENT_CONFIGS:])
        if cls == LIVE_ASSESS:
            return self._fresh(cls, "/assess",
                               lambda: dict(config, **_scenario(self._rng)))
        if cls == LIVE_TEMPORAL:
            def temporal():
                doc = dict(config, **_scenario(self._rng))
                doc["shift_hours"] = self._rng.randint(2, 48) / 4.0
                return doc
            return self._fresh(cls, "/temporal", temporal)
        return self._fresh(cls, "/uncertainty", lambda: {
            "spec": dict(config, **_scenario(self._rng)),
            "n_samples": SERVE_ENSEMBLE_SAMPLES,
            "seed": self._rng.randrange(0, 2**31 - 1)})

    def setup_requests(self) -> List[Request]:
        """Requests sent during setup: simulate the warm configuration and
        seed the repeat pool with a few answered documents."""
        requests = [self._fresh(NEW_CONFIG, "/assess", lambda: dict(
            self.warm_config, **_scenario(self._rng)))]
        requests += [self._live(LIVE_ASSESS) for _ in range(3)]
        requests.append(self._live(LIVE_UNCERTAINTY))
        self._answered.extend(requests)
        return requests

    def next_round(self) -> Round:
        if not self._answered:
            raise RuntimeError("setup_requests() must come first")
        config = self._new_config()
        pair = [self._fresh(NEW_CONFIG, "/assess",
                            lambda: dict(config, **_scenario(self._rng)))
                for _ in range(2)]
        repeats = [Request(CATALOG_READ, chosen.path, chosen.doc)
                   for chosen in (self._rng.choice(self._answered)
                                  for _ in range(3))]
        live = [self._live(LIVE_ASSESS) for _ in range(4)]
        live.append(self._live(LIVE_TEMPORAL if self.rounds_made % 2 == 0
                               else LIVE_UNCERTAINTY))
        rest = repeats + live
        self._rng.shuffle(rest)
        self._answered.extend(pair)
        self._answered.extend(r for r in live if r.cls != LIVE_TEMPORAL)
        self._recent.append(config)
        self.rounds_made += 1
        return Round(pair=pair, clients=[rest[:4], rest[4:]])


__all__ = [
    "CATALOG_READ",
    "LIVE_ASSESS",
    "LIVE_TEMPORAL",
    "LIVE_UNCERTAINTY",
    "NEW_CONFIG",
    "NODE_SCALE",
    "Request",
    "Round",
    "ServeRounds",
    "cold_assess_specs",
    "warm_session_config",
    "warm_sessions",
]
