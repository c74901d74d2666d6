"""Byte-for-byte lock on the paper-figure CSV.

The oracles elsewhere check that every rule picks from the right set; this
test checks that the seeded choices themselves, and so every output byte,
stay the same through refactors of the grid and rule code. A change to the
digest is a model change and must be explained where it is made.
"""

from __future__ import annotations

import hashlib

import pytest

from seatsim.cli import main

FIG1_ALL_200_SEED0_SHA256 = (
    "be3c3bf9e299d55e6105ac25b18f5ccb33d0bfebdb393ce94c01816e5b7ad8ed"
)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_fig1_all_policies_csv_digest(fig1_path, tmp_path, workers):
    out = tmp_path / "fig1.csv"
    code = main([
        "simulate",
        "--scenario", str(fig1_path),
        "--policy", "all",
        "--runs", "200",
        "--seed", "0",
        "--workers", workers,
        "--out", str(out),
    ])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIG1_ALL_200_SEED0_SHA256
