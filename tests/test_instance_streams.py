"""Pinned instance streams.

A sha256 of the ``describe`` dicts each check sweeps over, and of what
``instances_for_payload`` makes of a space, a frame and a lattice payload,
so that any change to which instances a check sees, or to their order,
shows up here.  Recompute a digest with ``stream_digests(cid)``.
"""

import hashlib
import json

import pytest

from adframe import Variant, build_ado, instances_for_payload, subset_lattice
from adframe.theorems import SweepSpec, _lookup, registry_ids

from helpers import CHAIN3

# Sweep sizes pinned exhaustively, then one seeded sample.
SWEEPS = tuple(SweepSpec(n=n) for n in range(4)) + (SweepSpec(n=3, count=7, seed=5),)
PAYLOADS = (("space", CHAIN3), ("frame", build_ado(CHAIN3)),
            ("lattice", subset_lattice(CHAIN3, "opens")))
# The topology instances of these checks are compared as a multiset.
UNORDERED_TOPOLOGIES = ("NAT-IND", "NAT-DISCR")


def _digest(docs) -> str:
    blob = json.dumps(docs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _sweep_docs(cid, spec):
    docs = [inst.describe for inst in _lookup(cid).sweep(spec)]
    if cid in UNORDERED_TOPOLOGIES:
        tops = sorted((d for d in docs if d["kind"] == "topology"),
                      key=lambda d: json.dumps(d, sort_keys=True))
        docs = tops + [d for d in docs if d["kind"] != "topology"]
    return docs


def _payload_docs(cid):
    out = []
    for name, payload in PAYLOADS:
        for v in Variant:
            try:
                got = [i.describe for i in instances_for_payload(cid, payload, v)]
            except ValueError as exc:
                got = {"error": str(exc)}
            out.append([name, v.value, got])
    return out


def stream_digests(cid: str) -> tuple[str, ...]:
    """Digests of the sweeps in ``SWEEPS``, then of the payload adaptations."""
    return tuple(_digest(_sweep_docs(cid, spec)) for spec in SWEEPS) + \
        (_digest(_payload_docs(cid)),)


PINNED = {
    "ADO-VALID": ("68145f30838df7bd", "1ff415aea9d1ca9d", "aeaf19fcd41b1bdc",
        "51747800fc22abed", "2cceb70e1db1f8d9", "1b39268acd1161b4"),
    "ADJ-TRIANGLE": ("7e2c342f22b4a15f", "512c05bedfe5e521", "6d3bd241284f4d48",
        "f8438b40d2615200", "f41bdcdc33184480", "b3ae24a83760cddd"),
    "ADJ-EXISTS": ("0217e74487d1f272", "139792c966089753", "100362927cd05c8e",
        "3b83ee6847c13581", "3339b62ef282633c", "76d796fe8bb55907"),
    "USC-LSC": ("68145f30838df7bd", "1ff415aea9d1ca9d", "aeaf19fcd41b1bdc",
        "51747800fc22abed", "2cceb70e1db1f8d9", "e6c4c9555a4d2212"),
    "ADS-ISO": ("68145f30838df7bd", "1ff415aea9d1ca9d", "aeaf19fcd41b1bdc",
        "51747800fc22abed", "2cceb70e1db1f8d9", "ac400cceabdf7dd9"),
    "OS-ISO": ("68145f30838df7bd", "1ff415aea9d1ca9d", "aeaf19fcd41b1bdc",
        "51747800fc22abed", "2cceb70e1db1f8d9", "59d3accb4c2f228c"),
    "ETA-PREIMAGE": ("68145f30838df7bd", "1ff415aea9d1ca9d", "aeaf19fcd41b1bdc",
        "51747800fc22abed", "2cceb70e1db1f8d9", "948e4a6a5b0ae61e"),
    "ADSOBER-EQ": ("68145f30838df7bd", "1ff415aea9d1ca9d", "aeaf19fcd41b1bdc",
        "51747800fc22abed", "2cceb70e1db1f8d9", "bc84d5bf9f01e68a"),
    "NAT-IND": ("3d7ed0c36172ee94", "b1600cef90900ec2", "11b3c13cbf953ad6",
        "ce223597e808d952", "9a22dd822eee2fdd", "0336ba2ba6779324"),
    "NAT-DISCR": ("3d7ed0c36172ee94", "b1600cef90900ec2", "11b3c13cbf953ad6",
        "ce223597e808d952", "9a22dd822eee2fdd", "8b20a61c5170c0ab"),
    "CEX-ADS": ("4f53cda18c2baa0c", "4f53cda18c2baa0c", "fdf8269952b0d805",
        "0855662c5b8c1b53", "7f3eac39ec48ca17", "a85aa02622b3ade6"),
    "HOMEO-ADS": ("68145f30838df7bd", "1ff415aea9d1ca9d", "aeaf19fcd41b1bdc",
        "51747800fc22abed", "2cceb70e1db1f8d9", "8d5fdea6eebe6736"),
    "ADT0-LEMMA": ("68145f30838df7bd", "1ff415aea9d1ca9d", "aeaf19fcd41b1bdc",
        "51747800fc22abed", "2cceb70e1db1f8d9", "c85806d1e8f6e3a6"),
    "IDEMPOTENT": ("68145f30838df7bd", "1ff415aea9d1ca9d", "aeaf19fcd41b1bdc",
        "51747800fc22abed", "2cceb70e1db1f8d9", "255654b862afbfb6"),
    "IND-VALID": ("65d0ce4395a0a23c", "c22d058c47f3ecce", "56798d82a5321db7",
        "3898f5baadcbef3f", "d3ea64e8501fea73", "4dfbb72a02104f6c"),
    "EPS-VALID": ("615a97b5b24ac660", "c012bc71480e3bea", "3e55cde0f049042a",
        "9bd5917cd4168bca", "1453f896d9d2afc5", "53af616c68f45c2e"),
    "IND-ADJ": ("4f53cda18c2baa0c", "9b575a472b46dd37", "817048b9ef3858a2",
        "ba5b918e1354a042", "c142dbdc5e5934be", "e2fc24734d0ce459"),
    "LIFT-SQUARE": ("a18428a5197d6bde", "549b2bc7a28926d7", "0651c120a958ac8d",
        "47446c160756236f", "0c43d566b4503afd", "69620ebfdbfffe59"),
    "CEX-LIFT": ("4f53cda18c2baa0c", "4f53cda18c2baa0c", "fdf8269952b0d805",
        "0855662c5b8c1b53", "7f3eac39ec48ca17", "7f19d6782df8b5dd"),
}


def test_every_check_is_pinned():
    assert tuple(PINNED) == registry_ids()


@pytest.mark.parametrize("cid", list(PINNED))
def test_instance_streams_are_pinned(cid):
    assert stream_digests(cid) == PINNED[cid]
