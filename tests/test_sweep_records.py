"""Pinned sweep outputs.

``test_instance_streams.py`` pins what each check sweeps over; this file
pins what it reports.  For every registered check it takes the sha256 of
the records of ``run_check(id, sweep={"n": 2})``, with the ``ms`` timing
field zeroed, so that any change to a verdict, a witness, a minimised
counterexample or the order of the records shows up here.  Recompute a
digest with ``record_digest(cid)``.  Every check is also pinned on its
exhaustive n = 3 sweep, which reaches every label family of three points,
and on the seeded n = 4 sample ``SAMPLE_N4``, whose spaces have more opens
and point closures than any exhaustive sweep.
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
    "ADJ-TRIANGLE": (24, "a6cf17c7cee0d45c"),
    "ADJ-EXISTS": (24, "0f058fb15363c4ef"),
    "USC-LSC": (2523, "834bf2a19af5f362"),
    "ADS-ISO": (2523, "f65e9a8e6f46c3f1"),
    "OS-ISO": (2523, "cdfd98479bce4024"),
    "ETA-PREIMAGE": (2523, "93cda95f73d63467"),
    "ADSOBER-EQ": (2523, "5f379a273082c53c"),
    "NAT-IND": (111, "d90adbae16fa0a48"),
    "NAT-DISCR": (111, "96f11453f5c75306"),
    "CEX-ADS": (30, "89e5491b9be393ad"),
    "HOMEO-ADS": (2523, "4241fc9284d60882"),
    "ADT0-LEMMA": (2523, "aacbe16eea7b98bd"),
    "IDEMPOTENT": (2523, "f3752ef3eac1c036"),
    "IND-VALID": (29, "3d59b735cf1a1474"),
    "EPS-VALID": (2523, "da89de4aed67742b"),
    "IND-ADJ": (24, "540ed94c4e1325f2"),
    "LIFT-SQUARE": (87, "5864bc5b73107808"),
    "CEX-LIFT": (30, "1477b496f9ab40ea"),
}

SAMPLE_N4 = {"n": 4, "count": 60, "seed": 1}

PINNED_N4 = {
    "ADO-VALID": (60, "fb371cd7ded31be0"),
    "ADJ-TRIANGLE": (60, "12523d8cada20b66"),
    "ADJ-EXISTS": (60, "0e14fe83e365ac06"),
    "USC-LSC": (60, "b8d43a0ace439c04"),
    "ADS-ISO": (60, "c964f9f8feadaaee"),
    "OS-ISO": (60, "3867f8f358f08e6a"),
    "ETA-PREIMAGE": (60, "b6c93a55edbbd01b"),
    "ADSOBER-EQ": (60, "d3b5d6dff90d5cac"),
    "NAT-IND": (120, "ad3b8258b649cb7c"),
    "NAT-DISCR": (120, "3a9857e03b11a311"),
    "CEX-ADS": (60, "2735d3eb6156fa17"),
    "HOMEO-ADS": (60, "29dc6324c223538a"),
    "ADT0-LEMMA": (60, "c384bd88f1c71023"),
    "IDEMPOTENT": (60, "f463cee84b0bf1bd"),
    "IND-VALID": (60, "d82bd129743d853c"),
    "EPS-VALID": (60, "89e566975ea154f3"),
    "IND-ADJ": (60, "122b3a6418d6ecda"),
    "LIFT-SQUARE": (60, "f404873901eea254"),
    "CEX-LIFT": (60, "276af9b4f53e662e"),
}


def test_every_check_is_pinned():
    assert tuple(PINNED) == tuple(PINNED_N3) == tuple(PINNED_N4) == registry_ids()


def test_record_count():
    assert sum(count for count, _ in PINNED.values()) == 7356
    assert sum(count for count, _ in PINNED_N4.values()) == 1260


@pytest.mark.parametrize("cid", list(PINNED))
def test_sweep_records_are_pinned(cid):
    assert record_digest(cid) == PINNED[cid]


@pytest.mark.parametrize("cid", list(PINNED_N3))
def test_n3_sweep_records_are_pinned(cid):
    assert record_digest(cid, {"n": 3}) == PINNED_N3[cid]


@pytest.mark.parametrize("cid", list(PINNED_N4))
def test_n4_sample_records_are_pinned(cid):
    assert record_digest(cid, SAMPLE_N4) == PINNED_N4[cid]
