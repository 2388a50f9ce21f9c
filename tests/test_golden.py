"""Byte-for-byte goldens of every command's outputs on the bundled household.

The files under ``tests/golden/household60/`` were written by these same
commands and are compared byte for byte, so any change to ingest, detection,
extraction, ranking or scoring that moves an output shows here.  To write
them again after an intended change::

    PYTHONPATH=src python -c "import sys; sys.path[:0] = ['tests']; \\
        import test_golden; test_golden.write_outputs(test_golden.GOLDEN)"

The stores under ``tests/golden/household60-store/`` pin the bytes ``ingest``
writes; ``test_golden.write_stores(test_golden.STORE_GOLDEN)`` writes them.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from homearbiter.aggregate import STRATEGIES
from homearbiter.cli import main

DATA = Path(__file__).resolve().parent.parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden" / "household60"
STORE_GOLDEN = Path(__file__).resolve().parent / "golden" / "household60-store"
LOOKBACKS = {"all": [], "lookback20": ["--lookback-days", "20"]}


def write_outputs(out: Path) -> None:
    """Ingest the bundled log, then resolve with every strategy and evaluate, with and without a lookback.

    svd also resolves once at a truncating alpha.
    """
    with tempfile.TemporaryDirectory() as tmp:
        # The store's file name is part of every output header, so it is fixed.
        store = Path(tmp) / "household60.store.jsonl"
        assert main(["ingest", str(DATA / "household60.csv"), "--out", str(store)]) == 0
        inputs = ["--store", str(store), "--requests", str(DATA / "household60_requests.jsonl")]
        for tag, lookback in LOOKBACKS.items():
            target = out / tag
            target.mkdir(parents=True, exist_ok=True)
            for strategy in STRATEGIES:
                assert main(["resolve", *inputs, *lookback, "--strategy", strategy, "--debug", "--k", "2",
                             "--dump-preferences", str(target / f"preferences-{strategy}.csv"),
                             "--out", str(target / f"resolve-{strategy}.jsonl")]) == 0
            assert main(["evaluate", *inputs, *lookback, "--plot-data",
                         "--out-prefix", str(target / "report")]) == 0
        # At alpha 0.8 household60's first two situations keep less than full
        # rank, so svd on truncated factors of real data is pinned too.
        target = out / "alpha08"
        target.mkdir(parents=True, exist_ok=True)
        assert main(["resolve", *inputs, "--alpha", "0.8", "--strategy", "svd", "--debug", "--k", "2",
                     "--dump-preferences", str(target / "preferences-svd.csv"),
                     "--out", str(target / "resolve-svd.jsonl")]) == 0


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_household60_outputs_match_goldens(tmp_path, capsys):
    write_outputs(tmp_path)
    got, want = _files(tmp_path), _files(GOLDEN)
    assert sorted(got) == sorted(want)
    assert len(want) == len(LOOKBACKS) * (2 * len(STRATEGIES) + 5) + 2
    for name in want:
        assert got[name] == want[name], f"{name} differs from its golden"


def write_stores(out: Path) -> None:
    """Ingest the bundled log with default settings, with channel draws and three bins, and as two date halves.

    The halves are split at the middle date and read as residents ``a`` and
    ``b`` under a location map that moves the TV, so the two-log numbering,
    the resident override and the map all reach the store.
    """
    log = DATA / "household60.csv"
    out.mkdir(parents=True, exist_ok=True)
    assert main(["ingest", str(log), "--out", str(out / "default.jsonl")]) == 0
    assert main(["ingest", str(log), "--channels", "Ch1,Ch2,Ch3", "--seed", "4", "--bin-count", "3",
                 "--out", str(out / "channels-bins3.jsonl")]) == 0
    with tempfile.TemporaryDirectory() as tmp:
        # The log file names are part of the store header, so they are fixed.
        header, *rows = log.read_text(encoding="utf-8").splitlines()
        dates = sorted({row.split(",", 1)[0] for row in rows})
        middle = dates[len(dates) // 2]
        halves = [Path(tmp) / "first.csv", Path(tmp) / "second.csv"]
        for half, later in zip(halves, (False, True)):
            kept = [row for row in rows if (row.split(",", 1)[0] >= middle) == later]
            half.write_text("\n".join([header, *kept]) + "\n", encoding="utf-8")
        location_map = Path(tmp) / "map.json"
        location_map.write_text('{"TV": "Den"}', encoding="utf-8")
        assert main(["ingest", *map(str, halves), "--residents", "a,b", "--location-map", str(location_map),
                     "--out", str(out / "halves-mapped.jsonl")]) == 0


def test_household60_stores_match_goldens(tmp_path, capsys):
    write_stores(tmp_path)
    got, want = _files(tmp_path), _files(STORE_GOLDEN)
    assert sorted(got) == sorted(want) == ["channels-bins3.jsonl", "default.jsonl", "halves-mapped.jsonl"]
    for name in want:
        assert got[name] == want[name], f"{name} differs from its golden"
