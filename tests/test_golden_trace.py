"""Golden-trace regression suite: the optimized SimX hot loop and the
reference interpreter must be byte-identical to the committed digests.

Every point under ``tests/golden/`` pins final device memory, cycle
counts, retired instructions, cache/DRAM counter totals, stall totals
and output-buffer hashes for one benchmark/configuration. A mismatch
here means an optimization changed simulated *behaviour*, not just
wall-clock — which is exactly what this suite exists to catch.

Regenerate with ``python -m repro golden --update`` (and say so in
review: goldens only move when a behaviour change is intended).
"""

import json

import pytest

from repro.harness.golden import (
    GOLDEN_DIR,
    compute_digest,
    diff_digest,
    digest_path,
    golden_points,
    load_digest,
)

_POINTS = golden_points()


def test_every_golden_point_has_a_committed_digest():
    missing = [p.name for p in _POINTS if not digest_path(p).exists()]
    assert not missing, (
        f"no committed digest for {missing}; run "
        f"`python -m repro golden --update`"
    )


def test_no_stale_digest_files():
    expected = {f"{p.name}.json" for p in _POINTS}
    on_disk = {f.name for f in GOLDEN_DIR.glob("*.json")}
    assert on_disk <= expected, (
        f"stale digest files: {sorted(on_disk - expected)}"
    )


def test_digests_are_normalised_json():
    # --update writes sorted, indented JSON so review diffs are stable;
    # a hand-edited digest that re-serialises differently is suspect.
    for point in _POINTS:
        path = digest_path(point)
        if not path.exists():
            continue
        doc = json.loads(path.read_text())
        assert path.read_text() == json.dumps(
            doc, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("point", _POINTS, ids=lambda p: p.name)
def test_golden_digest_matches(point):
    golden = load_digest(point)
    if golden is None:
        pytest.fail(f"missing digest for {point.name}")
    fresh = compute_digest(point)
    diffs = diff_digest(golden, fresh)
    assert not diffs, (
        f"{point.name}: diverged from golden digest:\n  "
        + "\n  ".join(diffs)
    )
