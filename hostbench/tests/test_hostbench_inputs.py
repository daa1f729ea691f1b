"""The seeded input streams: reproducible, and shaped as the docs claim."""

import itertools
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import inputs  # noqa: E402
import measure  # noqa: E402


def _take(stream, n):
    return list(itertools.islice(stream, n))


def _rounds(seed, n):
    rounds = inputs.ServeRounds(seed)
    setup = rounds.setup_requests()
    return setup, [rounds.next_round() for _ in range(n)]


class TestSameSeedSameStream:
    def test_cold_assess(self):
        assert _take(inputs.cold_assess_specs(3), 50) == \
            _take(inputs.cold_assess_specs(3), 50)
        assert _take(inputs.cold_assess_specs(3), 5) != \
            _take(inputs.cold_assess_specs(4), 5)

    def test_warm_session(self):
        assert _take(inputs.warm_sessions(3), 20) == \
            _take(inputs.warm_sessions(3), 20)
        assert inputs.warm_session_config(3) != inputs.warm_session_config(4)

    def test_serve_rounds(self):
        assert _rounds(3, 30) == _rounds(3, 30)
        assert _rounds(3, 2) != _rounds(4, 2)


class TestWorkIsSeedIndependent:
    def test_cold_ops_never_share_a_physical_key(self):
        seeds = [spec["campaign_seed"]
                 for spec in _take(inputs.cold_assess_specs(1), 2000)]
        assert len(set(seeds)) == len(seeds)
        assert {spec["node_scale"] for spec in
                _take(inputs.cold_assess_specs(9), 50)} == {inputs.NODE_SCALE}

    def test_warm_sessions_have_a_fixed_shape(self):
        for session in _take(inputs.warm_sessions(5), 50):
            assert len(session["sweep"]["pue"]) == inputs.SWEEP_AXIS_POINTS
            assert len(set(session["sweep"]["intensity"])) == \
                inputs.SWEEP_AXIS_POINTS
            assert session["ensemble"]["n_samples"] == \
                inputs.SESSION_ENSEMBLE_SAMPLES
            # Shifts are whole trace steps (60 s), as the engine requires.
            assert (session["temporal"]["shift_hours"] * 3600) % 60 == 0


class TestServeMix:
    def test_every_round_has_the_documented_class_counts(self):
        _setup, rounds = _rounds(7, 40)
        for index, rnd in enumerate(rounds):
            counts = Counter(r.cls for r in rnd.requests())
            odd = (inputs.LIVE_UNCERTAINTY if index % 2
                   else inputs.LIVE_TEMPORAL)
            assert counts == {inputs.NEW_CONFIG: 2, inputs.CATALOG_READ: 3,
                              inputs.LIVE_ASSESS: 4, odd: 1}
            assert [len(ops) for ops in rnd.clients] == [4, 4]

    def test_pair_shares_one_new_physical_config(self):
        _setup, rounds = _rounds(7, 20)
        seen = set()
        for rnd in rounds:
            a, b = (r.doc for r in rnd.pair)
            assert a != b
            assert (a["node_scale"], a["campaign_seed"]) == \
                (b["node_scale"], b["campaign_seed"])
            assert a["campaign_seed"] not in seen
            seen.add(a["campaign_seed"])

    def test_repeats_name_only_earlier_answers_and_live_never_repeats(self):
        setup, rounds = _rounds(11, 40)
        answered = {r.key for r in setup}
        live_keys = set()
        for rnd in rounds:
            for request in rnd.requests():
                if request.cls == inputs.CATALOG_READ:
                    assert request.key in answered
                else:
                    assert request.key not in live_keys
                    live_keys.add(request.key)
            answered |= {r.key for r in rnd.requests()
                         if r.cls != inputs.LIVE_TEMPORAL}

    def test_nominal_costs_keep_percentiles_clear_of_class_boundaries(self):
        nominal_ms = {inputs.CATALOG_READ: 2.0, inputs.LIVE_ASSESS: 5.0,
                      inputs.LIVE_UNCERTAINTY: 7.0, inputs.LIVE_TEMPORAL: 60.0,
                      inputs.NEW_CONFIG: 500.0}
        _setup, rounds = _rounds(2, 30)
        classes = [r.cls for rnd in rounds for r in rnd.requests()]
        bands = measure.class_bands(classes, [nominal_ms[c] for c in classes])
        verdict = measure.check_class_margins(
            bands, {"p50": 50.0,
                    "tail": measure.tail_percentile(len(classes))})
        assert verdict["ok"], verdict
