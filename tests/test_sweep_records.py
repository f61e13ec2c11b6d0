"""Pinned sweep outputs.

``test_instance_streams.py`` pins what each check sweeps over; this file
pins what it reports.  For every registered check it takes the sha256 of
the records of ``run_check(id, sweep={"n": 2})``, with the ``ms`` timing
field zeroed, so that any change to a verdict, a witness, a minimised
counterexample or the order of the records shows up here.  Recompute a
digest with ``record_digest(cid)``.  Three checks are also pinned at n = 3:
they read the ad-frame's relation rows, the per-point label masks of the
unit and the lattice analyses, over every label family of three points.
"""

import hashlib
import json

import pytest

from adframe.theorems import registry_ids, run_check

SWEEP = {"n": 2}


def record_digest(cid: str, sweep=SWEEP) -> tuple[int, str]:
    """The number of records of the sweep (n = 2 by default) of ``cid`` and
    their digest."""
    docs = [dict(r.to_json(), ms=0) for r in run_check(cid, sweep=sweep)]
    blob = json.dumps(docs, sort_keys=True).encode()
    return len(docs), hashlib.sha256(blob).hexdigest()[:16]


PINNED = {
    "ADO-VALID": (48, "103f0411009f31c9"),
    "ADJ-TRIANGLE": (4316, "7342b5e6b0391bf6"),
    "ADJ-EXISTS": (2022, "bfa436bd3dbe507b"),
    "USC-LSC": (48, "2e0d4e8b9fbd8eb0"),
    "ADS-ISO": (48, "437c19e0afea750e"),
    "OS-ISO": (48, "37a8c84c93a5f7e8"),
    "ETA-PREIMAGE": (48, "b2ebf3d854496ef9"),
    "ADSOBER-EQ": (48, "51a1e1c23fac7435"),
    "NAT-IND": (162, "0fe0e7cc0683623a"),
    "NAT-DISCR": (162, "e4b70ec7967abb77"),
    "CEX-ADS": (3, "dc257ef1bf6f040b"),
    "HOMEO-ADS": (48, "32db727904a97e6b"),
    "ADT0-LEMMA": (48, "d1746e10a72b2b4c"),
    "IDEMPOTENT": (48, "dacebcc4b551a2d6"),
    "IND-VALID": (4, "0a129a4ee15bb342"),
    "EPS-VALID": (48, "fff64a4e288b06f2"),
    "IND-ADJ": (192, "bfbfc6473050bced"),
    "LIFT-SQUARE": (12, "d82670978631ec81"),
    "CEX-LIFT": (3, "4552245bf06e1c25"),
}

PINNED_N3 = {
    "ADO-VALID": (2523, "0b8fefd1a2fad1ef"),
    "ADS-ISO": (2523, "f65e9a8e6f46c3f1"),
    "ADSOBER-EQ": (2523, "5f379a273082c53c"),
}


def test_every_check_is_pinned():
    assert tuple(PINNED) == registry_ids()


def test_record_count():
    assert sum(count for count, _ in PINNED.values()) == 7356


@pytest.mark.parametrize("cid", list(PINNED))
def test_sweep_records_are_pinned(cid):
    assert record_digest(cid) == PINNED[cid]


@pytest.mark.parametrize("cid", list(PINNED_N3))
def test_n3_sweep_records_are_pinned(cid):
    assert record_digest(cid, {"n": 3}) == PINNED_N3[cid]
