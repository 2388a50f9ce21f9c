"""Seeded inputs for the benchmark workloads.

Every input is a CSV log or a JSON-lines request file, written from the
workload seed alone: the same seed gives byte-identical files.  Draws come
from numpy's legacy ``RandomState``, whose streams are frozen, seeded with
``(seed, stream tag)`` so that each input has its own stream.

Request batches follow a fixed structure at fixed times of day; the seed
draws the household, the members of each group and the requested values.
So a batch's cost hardly depends on the seed, and op-time medians of
different seeds are comparable.  The number of batches a workload cycles
through is odd, so the median op sits in the middle of a batch's own
cluster of op times, not on the edge between two of them.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from homearbiter.intervals import format_hms
from homearbiter.synthetic import CHANNELS, STATIONS, synthetic_household

BATCHES = 5

INGEST_DAYS = 3000
LONG_DAYS = 1000
WIDE_DAYS = 14
WIDE_START = dt.date(2026, 3, 2)
WIDE_RESIDENTS = tuple(f"r{i:02d}" for i in range(1, 13))
WIDE_CHANNELS = tuple(f"Ch{i:02d}" for i in range(1, 41))
WIDE_FAVOURITES = 16
WIDE_STAGGER = 300  # seconds between consecutive residents' request starts
WIDE_LENGTH = 5400  # each wide request lasts 90 minutes
# Staggered starts and ends split the 12 windows into 11 growing and 10
# shrinking member sets with at least two residents.
WIDE_SITUATIONS = 2 * len(WIDE_RESIDENTS) - 3

TV = ("TV", "living room", "channel")
RADIO = ("radio", "kitchen", "station")
THERMOSTAT = ("thermostat", "bedroom", "temp")

# Request windows sit at fixed times near the household's usage: the share
# of the history a window overlaps sets an op's cost, so windows that moved
# with the seed would make medians of different seeds incomparable.
LONG_STARTS = {"tv": 72000, "radio": 25500, "thermostat": 79200}  # 20:00, 07:05, 22:00

# resolve-long batch shapes: (kind, residents, stagger).  A 3-resident TV
# group with staggered starts splits into 3 situations; every other group
# gives one.  The shapes give 1, 2, 3, 4 and 5 situations.
LONG_SHAPES = (
    (("tv", 2, False),),
    (("tv", 3, False), ("thermostat", 2, False)),
    (("tv", 2, False), ("radio", 2, True), ("thermostat", 2, False)),
    (("tv", 3, True), ("radio", 2, True)),
    (("tv", 3, True), ("radio", 2, True), ("thermostat", 2, False)),
)


@dataclass
class Inputs:
    """Files one workload reads, and what a correct output must contain."""

    log: Path
    batches: list[Path] = field(default_factory=list)
    # Number of conflict situations each batch must produce.
    situations: list[int] = field(default_factory=list)
    # Largest conflict group of each batch.
    max_group: list[int] = field(default_factory=list)


def scaled(days: int, scale: float) -> int:
    return max(7, round(days * scale))


def _rng(seed: int, tag: int) -> np.random.RandomState:
    return np.random.RandomState([seed, tag])


def _request(rid, kind, resident, value, start, length) -> dict:
    service_id, location, attribute = kind
    return {
        "attribute": attribute,
        "end": format_hms((start + length) % 86400),
        "location": location,
        "request_id": rid,
        "resident": resident,
        "service_id": service_id,
        "start": format_hms(start),
        "value": value,
    }


def _group(rng, tag: str, kind: str, size: int, stagger: bool, start: int, length: int) -> list[dict]:
    """One group of mutually conflicting requests with distinct values."""
    if kind == "tv":
        residents = sorted(str(r) for r in rng.choice(["alice", "bob", "cara"], size=size, replace=False))
        values = [str(v) for v in rng.choice(CHANNELS, size=size, replace=False)]
        target = TV
    elif kind == "radio":
        residents = ["alice", "bob"]
        values = [str(v) for v in rng.choice(STATIONS, size=2, replace=False)]
        target = RADIO
    else:
        # alice's low and cara's high setpoints fall into different bins of
        # any 5-bin split of the household's 18-25 degree range.  They stay
        # JSON numbers, so the program bins them.
        residents = ["alice", "cara"]
        values = [float(rng.choice([18, 19, 20])), float(rng.choice([24, 25]))]
        target = THERMOSTAT
    order = rng.permutation(len(residents))
    return [
        _request(f"{tag}-{resident}", target, resident, value, start + (300 * int(slot) if stagger else 0), length)
        for resident, value, slot in zip(residents, values, order)
    ]


def _write_jsonl(path: Path, records: list[dict]) -> None:
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records), encoding="utf-8")


def long_batch(seed: int, index: int) -> tuple[list[dict], int, int]:
    """Requests of resolve-long batch ``index``, its situation count and largest group."""
    rng = _rng(seed, 100 + index)
    records, situations, largest = [], 0, 0
    for kind, size, stagger in LONG_SHAPES[index % len(LONG_SHAPES)]:
        records += _group(rng, kind, kind, size, stagger, LONG_STARTS[kind], 1800)
        # A staggered group of n members splits into 2n - 3 situations.
        situations += 2 * size - 3 if stagger else 1
        largest = max(largest, size)
    return records, situations, largest


# evaluate groups: (tag, kind, residents, start, length), the windows of the
# bundled 60-day request file.
EVALUATE_GROUPS = (
    ("tv-early", "tv", 2, 70200, 1200),
    ("tv", "tv", 3, 72000, 1800),
    ("tv-late", "tv", 2, 75600, 2400),
    ("radio", "radio", 2, 25500, 1200),
    ("thermo", "thermostat", 2, 79200, 1800),
    ("thermo-late", "thermostat", 2, 81600, 1200),
)


def evaluate_batch(seed: int, index: int) -> list[dict]:
    """Six separate conflicts: three TV (one of 3 residents), one radio, two thermostat."""
    rng = _rng(seed, 200 + index)
    records = []
    for tag, kind, size, start, length in EVALUATE_GROUPS:
        records += _group(rng, tag, kind, size, False, start, length)
    return records


def wide_household(seed: int) -> str:
    """12 residents zapping through 40 TV channels every evening, as a CSV log.

    Each resident has 16 favourite channels with random weights and watches
    for 150 minutes every evening: one ON, a SET per channel change and one
    OFF.  Fixed sessions keep the event count, and so the cost of an op,
    nearly the same for every seed.
    """
    rng = _rng(seed, 1)
    tastes = {}
    for resident in WIDE_RESIDENTS:
        favourites = sorted(rng.choice(len(WIDE_CHANNELS), size=WIDE_FAVOURITES, replace=False))
        weights = rng.random_sample(WIDE_FAVOURITES) + 0.2
        tastes[resident] = ([WIDE_CHANNELS[i] for i in favourites], weights / weights.sum())
    rows = []
    for day in range(WIDE_DAYS):
        date = (WIDE_START + dt.timedelta(days=day)).isoformat()
        for resident in WIDE_RESIDENTS:
            channels, weights = tastes[resident]
            t = 66600 + int(rng.randint(0, 5400))  # 18:30 - 20:00
            end = t + 9000
            status = "ON"
            while t < end:
                channel = channels[int(rng.choice(len(channels), p=weights))]
                rows.append((date, t, "TV", status, f"channel={channel}", resident, "living room"))
                status = "SET"
                t += int(rng.randint(600, 2400))
            rows.append((date, end, "TV", "OFF", "", resident, "living room"))
    rows.sort(key=lambda r: (r[0], r[1], r[5]))
    lines = ["date,time,sensor,status,value,resident,location"]
    lines += [f"{d},{format_hms(t)},{s},{st},{v},{r},{loc}" for d, t, s, st, v, r, loc in rows]
    return "\n".join(lines) + "\n"


def wide_batch(seed: int, index: int) -> list[dict]:
    """12 TV requests with distinct channels, starts 5 minutes apart."""
    rng = _rng(seed, 300 + index)
    order = rng.permutation(len(WIDE_RESIDENTS))
    values = rng.choice(WIDE_CHANNELS, size=len(WIDE_RESIDENTS), replace=False)
    base = 68400  # 19:00
    return [
        _request(f"tv-{WIDE_RESIDENTS[i]}", TV, WIDE_RESIDENTS[i], str(values[slot]),
                 base + slot * WIDE_STAGGER, WIDE_LENGTH)
        for slot, i in enumerate(order)
    ]


def write_inputs(workload: str, seed: int, directory: Path, scale: float = 1.0) -> Inputs:
    """Write the workload's log and request batches into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    log = directory / "household.csv"
    if workload == "ingest":
        log.write_text(synthetic_household(seed=seed, days=scaled(INGEST_DAYS, scale))[0], encoding="utf-8")
        return Inputs(log=log)
    if workload == "resolve-wide":
        log.write_text(wide_household(seed), encoding="utf-8")
    else:
        log.write_text(synthetic_household(seed=seed, days=scaled(LONG_DAYS, scale))[0], encoding="utf-8")
    inputs = Inputs(log=log)
    for index in range(BATCHES):
        if workload == "resolve-long":
            records, situations, largest = long_batch(seed, index)
        elif workload == "evaluate":
            records = evaluate_batch(seed, index)
            situations, largest = len(EVALUATE_GROUPS), max(group[2] for group in EVALUATE_GROUPS)
        elif workload == "resolve-wide":
            records, situations, largest = wide_batch(seed, index), WIDE_SITUATIONS, len(WIDE_RESIDENTS)
        else:
            raise ValueError(f"unknown workload {workload!r}")
        path = directory / f"requests-{index}.jsonl"
        _write_jsonl(path, records)
        inputs.batches.append(path)
        inputs.situations.append(situations)
        inputs.max_group.append(largest)
    return inputs
