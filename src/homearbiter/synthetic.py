"""Deterministic synthetic household data for demos and end-to-end tests.

Generates a 60-day, 3-resident event log in the package's CSV format plus a
matching request file containing conflicts of sizes 2 and 3.  All draws come
from a fixed-algorithm generator, so a given seed always produces the same
bytes.
"""

from __future__ import annotations

import datetime as dt
import json

import numpy as np

from .intervals import format_hms

DEFAULT_SEED = 121
START_DATE = dt.date(2026, 3, 2)
RESIDENTS = ("alice", "bob", "cara")
CHANNELS = ("Ch1", "Ch2", "Ch3", "Ch4", "Ch5")
# Everyone watches most channels a fair amount; favorites differ, Ch1 is the
# shared household staple and Ch4 a rarity.  Graded tastes like these give
# the latent resolver genuine compromises to find.
CHANNEL_WEIGHTS = {
    "alice": {"Ch1": 0.26, "Ch2": 0.14, "Ch3": 0.32, "Ch4": 0.04, "Ch5": 0.14},
    "bob": {"Ch1": 0.26, "Ch2": 0.32, "Ch3": 0.14, "Ch4": 0.04, "Ch5": 0.14},
    "cara": {"Ch1": 0.26, "Ch2": 0.14, "Ch3": 0.14, "Ch4": 0.04, "Ch5": 0.32},
}
STATIONS = ("St1", "St2", "St3")
STATION_WEIGHTS = {
    "alice": {"St1": 0.40, "St2": 0.25, "St3": 0.35},
    "bob": {"St1": 0.10, "St2": 0.65, "St3": 0.25},
}


def _weighted_pick(rng: np.random.RandomState, weights: dict[str, float]) -> str:
    labels = sorted(weights)
    probs = np.array([weights[l] for l in labels])
    roll = rng.random_sample() * float(probs.sum())
    acc = 0.0
    for label, p in zip(labels, probs):
        acc += p
        if roll < acc:
            return label
    return labels[-1]


def synthetic_household(seed: int = DEFAULT_SEED, days: int = 60):
    """Return ``(log_csv_text, requests_jsonl_text)`` for the synthetic household."""
    rng = np.random.RandomState(seed)
    rows: list[tuple[dt.date, int, str, str, str, str, str]] = []

    def add_session(date, resident, sensor, location, start, duration, value):
        rows.append((date, start, sensor, "ON", value, resident, location))
        rows.append((date, min(start + duration, 86399), sensor, "OFF", "", resident, location))

    for day in range(days):
        date = START_DATE + dt.timedelta(days=day)
        # Evening TV in the living room; graded tastes with distinct favorites.
        for resident in RESIDENTS:
            if rng.random_sample() < 0.9:
                start = 71100 + int(rng.randint(-1200, 1500))  # around 19:45
                duration = int(rng.randint(2400, 6600))  # 40-110 minutes
                channel = _weighted_pick(rng, CHANNEL_WEIGHTS[resident])
                add_session(date, resident, "TV", "living room", start, duration, f"channel={channel}")
        # Morning radio in the kitchen for two residents.
        for resident in ("alice", "bob"):
            if rng.random_sample() < 0.75:
                start = 25200 + int(rng.randint(-600, 600))  # around 07:00
                duration = int(rng.randint(1200, 2400))
                station = _weighted_pick(rng, STATION_WEIGHTS[resident])
                add_session(date, resident, "radio", "kitchen", start, duration, f"station={station}")
        # Late thermostat sessions with numeric setpoints (exercises binning).
        for resident, base in (("alice", 20.0), ("cara", 23.0)):
            if rng.random_sample() < 0.8:
                start = 79200 + int(rng.randint(-900, 900))  # around 22:00
                duration = int(rng.randint(1800, 3600))
                setpoint = base + float(rng.randint(-2, 3))
                add_session(date, resident, "thermostat", "bedroom", start, duration, f"temp={setpoint:g}")

    rows.sort(key=lambda r: (r[0], r[1], r[2], r[5], r[3]))
    lines = ["date,time,sensor,status,value,resident,location"]
    for date, sec, sensor, status, value, resident, location in rows:
        lines.append(f"{date.isoformat()},{format_hms(sec)},{sensor},{status},{value},{resident},{location}")
    log_text = "\n".join(lines) + "\n"

    requests = [
        {"request_id": "tv-alice", "service_id": "TV", "attribute": "channel", "value": "Ch3",
         "start": "20:00:00", "end": "20:30:00", "location": "living room", "resident": "alice"},
        {"request_id": "tv-bob", "service_id": "TV", "attribute": "channel", "value": "Ch2",
         "start": "20:00:00", "end": "20:30:00", "location": "living room", "resident": "bob"},
        {"request_id": "tv-cara", "service_id": "TV", "attribute": "channel", "value": "Ch5",
         "start": "20:00:00", "end": "20:30:00", "location": "living room", "resident": "cara"},
        {"request_id": "radio-alice", "service_id": "radio", "attribute": "station", "value": "St1",
         "start": "07:05:00", "end": "07:25:00", "location": "kitchen", "resident": "alice"},
        {"request_id": "radio-bob", "service_id": "radio", "attribute": "station", "value": "St2",
         "start": "07:05:00", "end": "07:25:00", "location": "kitchen", "resident": "bob"},
        {"request_id": "tv-late-bob", "service_id": "TV", "attribute": "channel", "value": "Ch2",
         "start": "21:00:00", "end": "21:40:00", "location": "living room", "resident": "bob"},
        {"request_id": "tv-late-cara", "service_id": "TV", "attribute": "channel", "value": "Ch5",
         "start": "21:00:00", "end": "21:40:00", "location": "living room", "resident": "cara"},
        {"request_id": "tv-early-alice", "service_id": "TV", "attribute": "channel", "value": "Ch3",
         "start": "19:30:00", "end": "19:50:00", "location": "living room", "resident": "alice"},
        {"request_id": "tv-early-cara", "service_id": "TV", "attribute": "channel", "value": "Ch1",
         "start": "19:30:00", "end": "19:50:00", "location": "living room", "resident": "cara"},
        {"request_id": "thermo-alice", "service_id": "thermostat", "attribute": "temp", "value": 19.0,
         "start": "22:00:00", "end": "22:30:00", "location": "bedroom", "resident": "alice"},
        {"request_id": "thermo-cara", "service_id": "thermostat", "attribute": "temp", "value": 24.0,
         "start": "22:00:00", "end": "22:30:00", "location": "bedroom", "resident": "cara"},
        {"request_id": "thermo-late-alice", "service_id": "thermostat", "attribute": "temp", "value": 21.0,
         "start": "22:40:00", "end": "23:00:00", "location": "bedroom", "resident": "alice"},
        {"request_id": "thermo-late-cara", "service_id": "thermostat", "attribute": "temp", "value": 22.0,
         "start": "22:40:00", "end": "23:00:00", "location": "bedroom", "resident": "cara"},
        {"request_id": "lamp-cara", "service_id": "lamp", "attribute": "state", "value": "on",
         "start": "18:00:00", "end": "18:30:00", "location": "hallway", "resident": "cara"},
    ]
    request_text = "\n".join(json.dumps(r, sort_keys=True) for r in requests) + "\n"
    return log_text, request_text
