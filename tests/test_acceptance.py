"""Acceptance suite: one test per release criterion, each printing PASS/FAIL."""

import itertools
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from homearbiter.aggregate import (
    build_item_set,
    build_preference_matrix,
    consensus_distance,
    consensus_scores,
    rank_by_average,
    rank_by_least_misery,
    rank_by_most_pleasure,
    request_centroid,
)
from homearbiter.cli import main
from homearbiter.config import RunConfig
from homearbiter.detect import detect_conflicts
from homearbiter.evaluate import EvaluationConfig, harmonic_satisfaction, run_experiment
from homearbiter.ingest import compute_bins, load_requests
from homearbiter.intervals import TimeOfDayInterval
from homearbiter.linalg import TruncatedSvd, svd, truncate
from homearbiter.model import AttributeValue, ServiceRequest
from homearbiter.preferences import build_preference_table, temporal_proximity, window_events
from homearbiter.store import load_store

from conftest import binning_sse, interval, make_event, make_request, matrix_entries, matrix_from_entries, reconstruct
from test_detect import _detected_keys, sweep_oracle
from test_ingest import brute_force_bins

DATA = Path(__file__).resolve().parent.parent / "data"

WORKED = np.array(
    [
        [19.44, 14.48, 15.20, 11.04],
        [20.00, 17.20, 14.52, 20.00],
        [16.08, 14.12, 14.40, 20.00],
    ]
)
ITEMS = ("Ch1", "Ch2", "Ch3", "Ch5")


class Gate:
    def __init__(self, capsys, number, name):
        self.capsys = capsys
        self.label = f"ACCEPTANCE {number} ({name})"

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        with self.capsys.disabled():
            print(f"{self.label}: {verdict}")
        return False


def _worked_situation():
    requests = [
        make_request("r1", "Ch3", request_id="A"),
        make_request("r2", "Ch2", request_id="B"),
        make_request("r3", "Ch5", request_id="C"),
    ]
    situations = detect_conflicts(requests)
    assert len(situations) == 1
    return situations[0]


def test_acceptance_1_worked_example_pipeline(capsys):
    with Gate(capsys, 1, "worked-example golden suite"):
        started = time.perf_counter()
        situation = _worked_situation()
        table_entries = {
            (resident, item): WORKED[ri, ii]
            for ri, resident in enumerate(("r1", "r2", "r3"))
            for ii, item in enumerate(ITEMS)
        }
        table = matrix_from_entries(table_entries)
        item_set = build_item_set(table, situation, top_n=3)
        assert item_set == ITEMS
        matrix = build_preference_matrix(table, item_set)

        factors = svd(matrix.scores)
        assert np.allclose(factors.singular_values, [57.1127, 6.8771, 1.8235], atol=1e-3)

        tsvd = truncate(factors, 0.97)
        assert tsvd.rank == 2

        centroid = request_centroid(tsvd, item_set, situation)
        assert np.allclose(np.abs(centroid), [0.48, 0.15], atol=0.01)

        consensus = consensus_scores(tsvd, np.round(centroid, 2))
        assert np.allclose(consensus, [13.623, 17.539, 16.107], atol=0.05)

        golden_distances = {"Ch1": 6.32, "Ch2": 2.19, "Ch3": 3.81, "Ch5": 5.28}
        distances = {item: consensus_distance(matrix, item, consensus) for item in item_set}
        for item, target in golden_distances.items():
            assert distances[item] == pytest.approx(target, abs=0.02)

        top2 = sorted(sorted(distances, key=lambda i: (distances[i], i))[:2])
        assert top2 == ["Ch2", "Ch3"]

        assert time.perf_counter() - started < 1.0


def test_acceptance_2_baseline_goldens(capsys):
    with Gate(capsys, 2, "baseline golden suite"):
        from homearbiter.aggregate import PreferenceMatrix

        matrix = PreferenceMatrix(residents=("r1", "r2", "r3"), items=ITEMS, scores=WORKED.copy())
        avg = dict(rank_by_average(matrix))
        for item, target in zip(ITEMS, (18.51, 15.27, 14.71, 17.01)):
            assert avg[item] == pytest.approx(target, abs=0.01)
        lm = dict(rank_by_least_misery(matrix))
        assert lm["Ch1"] == pytest.approx(16.08, abs=0.01)
        assert lm["Ch2"] == pytest.approx(14.12, abs=0.01)
        assert lm["Ch5"] == pytest.approx(11.04, abs=0.01)
        mp = dict(rank_by_most_pleasure(matrix))
        for item, target in zip(ITEMS, (20.00, 17.20, 15.20, 20.00)):
            assert mp[item] == pytest.approx(target, abs=0.01)


def test_acceptance_3_temporal_proximity_goldens(capsys):
    with Gate(capsys, 3, "temporal proximity goldens"):
        first = temporal_proximity([interval("20:00:00", "21:00:00"), interval("20:45:00", "21:45:00")])
        assert first == pytest.approx(0.571, abs=0.005)
        second = temporal_proximity([interval("18:00:00", "19:00:00"), interval("18:10:00", "19:10:00")])
        assert second == pytest.approx(0.857, abs=0.005)

        # 18 exact-window events plus two suffix events of the 20:00-20:30
        # window, whose pair proximities are 0.9375 and 0.5025.
        history = [make_event("r1", "20:00:00", "20:30:00", channel="Ch1") for _ in range(18)]
        history.append(make_event("r1", "20:03:45", "20:30:00", channel="Ch1"))
        history.append(make_event("r1", "20:29:51", "20:30:00", channel="Ch1"))
        situation = _worked_situation()
        table = build_preference_table(window_events(history, situation), situation)
        assert table.score("r1", "Ch1") == 19.44


def test_acceptance_4_property_suites(capsys):
    with Gate(capsys, 4, "property suites"):
        # SVD reconstruction and orthogonality on 200 random matrices up to 8x12.
        rng = np.random.RandomState(404)
        for index in range(200):
            rows = int(rng.randint(1, 9))
            cols = int(rng.randint(1, 13))
            m = rng.randn(rows, cols) * float(rng.choice([0.1, 1.0, 10.0]))
            if index % 7 == 0 and rows > 1:
                m[rows - 1] = m[0]
            result = svd(m)
            scale = max(1.0, float(np.max(np.abs(m))))
            assert np.max(np.abs(reconstruct(result) - m)) / scale < 1e-8
            assert np.max(np.abs(result.A.T @ result.A - np.eye(rows))) < 1e-8
            assert np.max(np.abs(result.V.T @ result.V - np.eye(cols))) < 1e-8

        # Sign-flip invariance of the consensus projection and distances.
        situation = _worked_situation()
        tsvd = truncate(svd(WORKED), 0.97)
        base_centroid = np.round(request_centroid(tsvd, ITEMS, situation), 2)
        base = consensus_scores(tsvd, base_centroid)
        from homearbiter.aggregate import PreferenceMatrix

        matrix = PreferenceMatrix(residents=("r1", "r2", "r3"), items=ITEMS, scores=WORKED.copy())
        base_ranking = sorted(ITEMS, key=lambda i: (consensus_distance(matrix, i, base), i))
        for signs in itertools.product((1.0, -1.0), repeat=tsvd.rank):
            flip = np.array(signs)
            flipped = TruncatedSvd(
                A_w=tsvd.A_w * flip,
                singular_values=tsvd.singular_values.copy(),
                V_w=tsvd.V_w * flip,
                rank=tsvd.rank,
            )
            centroid = np.round(request_centroid(flipped, ITEMS, situation), 2)
            consensus = consensus_scores(flipped, centroid)
            assert np.allclose(consensus, base, atol=1e-8)
            ranking = sorted(ITEMS, key=lambda i: (consensus_distance(matrix, i, consensus), i))
            assert ranking == base_ranking

        # Optimal binning equals brute force for all sizes up to 12.
        rng = np.random.RandomState(405)
        for n in range(1, 13):
            for bin_count in range(1, n + 1):
                for _ in range(4):
                    values = [float(v) for v in rng.randint(0, 9, size=n)]
                    if len(set(values)) < bin_count:
                        continue
                    spec = compute_bins(values, bin_count)
                    best_sse, _ = brute_force_bins(values, bin_count)
                    assert binning_sse(values, spec) == pytest.approx(best_sse, abs=1e-9)

        # Conflict grouping equals the 1-second sweep oracle for n <= 6.
        rng = np.random.RandomState(406)
        for _ in range(120):
            n = int(rng.randint(2, 7))
            requests = []
            for i in range(n):
                start = int(rng.randint(0, 200))
                end = start + 1 + int(rng.randint(0, 150))
                requests.append(
                    ServiceRequest(
                        request_id=f"q{i}",
                        service_id="TV",
                        attribute="channel",
                        value=AttributeValue.categorical(f"v{rng.randint(0, 3)}"),
                        interval=TimeOfDayInterval(start, end),
                        location="living room",
                        resident=f"r{rng.randint(0, 4)}",
                    )
                )
            assert _detected_keys(detect_conflicts(requests)) == sweep_oracle(requests)

        # Preference-score linearity under event duplication.
        import dataclasses
        from homearbiter.demo import reference_history

        history = reference_history()
        situation = _worked_situation()
        base_table = build_preference_table(window_events(history, situation), situation)
        doubled = history + [dataclasses.replace(e, event_id=e.event_id + "b") for e in history]
        double_table = build_preference_table(window_events(doubled, situation), situation)
        for key, score in matrix_entries(base_table).items():
            assert matrix_entries(double_table)[key] == pytest.approx(2 * score, rel=1e-12)

        # Harmonic mean never exceeds the arithmetic mean.
        rng = np.random.RandomState(407)
        for _ in range(100):
            sums = np.abs(rng.randn(int(rng.randint(1, 6)))) + 1e-3
            entries = {(f"m{i}", "x"): float(s) for i, s in enumerate(sums)}
            table = matrix_from_entries(entries)
            members = sorted(r for r, _ in entries)
            assert harmonic_satisfaction(table, members, ["x"]) <= float(np.mean(sums)) + 1e-9


def _ingest_bundled(tmp_path, tag):
    store = tmp_path / f"store-{tag}.jsonl"
    rc = main(["ingest", str(DATA / "household60.csv"), "--out", str(store)])
    assert rc == 0
    return store


def test_acceptance_5_end_to_end_smoke(capsys, tmp_path):
    with Gate(capsys, 5, "end-to-end smoke on bundled log"):
        store_path = _ingest_bundled(tmp_path, "a")
        requests_path = DATA / "household60_requests.jsonl"

        store = load_store(store_path)
        requests = load_requests(requests_path, bin_specs=store.bin_specs())
        report = run_experiment(store.events, requests, EvaluationConfig(), RunConfig())

        # (a) conflicts were found
        counts = {row.group_size: row.conflict_count for row in report.rows if row.strategy == "svd"}
        assert sum(counts.values()) > 0
        assert all(count > 0 for count in counts.values())

        # (b) svd harmonic >= each of avg/lm/mp in at least half the situations
        harmonics = defaultdict(dict)
        for detail in report.details:
            harmonics[detail.situation_key][detail.strategy] = detail.harmonic
        wins = sum(
            all(values["svd"] >= values[b] - 1e-9 for b in ("avg", "lm", "mp"))
            for values in harmonics.values()
        )
        assert wins * 2 >= len(harmonics), f"svd fair in only {wins}/{len(harmonics)} situations"

        # (c) a rerun with the same seed is byte-identical
        prefix_one, prefix_two = tmp_path / "run1", tmp_path / "run2"
        args = ["evaluate", "--store", str(store_path), "--requests", str(requests_path)]
        assert main(args + ["--out-prefix", str(prefix_one)]) == 0
        assert main(args + ["--out-prefix", str(prefix_two)]) == 0
        assert (tmp_path / "run1.csv").read_bytes() == (tmp_path / "run2.csv").read_bytes()
        assert (tmp_path / "run1.json").read_bytes() == (tmp_path / "run2.json").read_bytes()


def test_acceptance_6_cli_determinism(capsys, tmp_path):
    with Gate(capsys, 6, "command determinism"):
        store_one = _ingest_bundled(tmp_path, "one")
        store_two = _ingest_bundled(tmp_path, "two")
        assert store_one.read_bytes() == store_two.read_bytes()

        requests_path = DATA / "household60_requests.jsonl"
        for command, extra in (
            ("detect", []),
            ("resolve", ["--debug"]),
            ("resolve", ["--strategy", "lm"]),
        ):
            outputs = []
            for tag in ("x", "y"):
                out = tmp_path / f"{command}-{''.join(extra)}-{tag}.jsonl"
                rc = main([
                    command, "--store", str(store_one), "--requests", str(requests_path),
                    "--out", str(out), *extra,
                ])
                assert rc == 0
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1]

        demo_runs = []
        for _ in range(2):
            assert main(["demo"]) == 0
            demo_runs.append(capsys.readouterr().out)
        assert demo_runs[0] == demo_runs[1]
