"""The CLI's bytes on the documents of the ``payload-large`` bench.

The bench writes ``validate`` and ``adpt`` results with ``--out`` for the
two-sided lifts of chains and grids, relabelled by a seeded shuffle.  The
two smallest of those lifts are rebuilt here by the same shape rules, and
the sha256 of each out-file is pinned, so that a change to the reader or
the writer cannot drift on the traffic the bench measures.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest

from adframe.cli import main

from helpers import lift_doc


def _relabelled_lift(rng, pairs, m):
    perm = list(range(m))
    rng.shuffle(perm)
    return lift_doc({"leq": sorted([perm[i], perm[j]] for i, j in pairs)})


def bench_lifts():
    """The lifts of the 16-chain and the 4 x 4 grid as the bench's seed 0
    draws them: one shuffle for the chain, one draw for the grid's
    orientation (a square turns into itself), one shuffle for the grid."""
    rng = random.Random("payload-large|0")
    chain = _relabelled_lift(rng, [(i, j) for i in range(16) for j in range(i, 16)], 16)
    rng.random()
    grid = _relabelled_lift(rng, [(i * 4 + j, k * 4 + l) for i in range(4) for j in range(4)
                                  for k in range(i, 4) for l in range(j, 4)], 16)
    return {"lift-chain16": chain, "lift-grid4x4": grid}


PINNED = {
    ("validate", "lift-chain16"): (0, "", "cfb33f902a50c5fc"),
    ("adpt", "lift-chain16"): (0, "", "21541efb5d6d7315"),
    ("validate", "lift-grid4x4"): (0, "", "cfb33f902a50c5fc"),
    ("adpt", "lift-grid4x4"): (0, "", "330e6a0ec8759b7c"),
}


def _run(verb, doc, tmp_path):
    """(exit code, stderr, the out-file) of ``adframe <verb> --in --out``."""
    src, out = tmp_path / "payload.json", tmp_path / "out.json"
    src.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([verb, "--in", str(src), "--out", str(out)])
    return code, err.getvalue(), out.read_bytes()


@pytest.mark.parametrize("verb,name", list(PINNED))
def test_bench_documents_are_written_byte_for_byte(verb, name, tmp_path):
    code, err, body = _run(verb, bench_lifts()[name], tmp_path)
    assert (code, err, hashlib.sha256(body).hexdigest()[:16]) == PINNED[verb, name]


def test_the_chain_lift_spectrum_is_fifteen_equivalent_points(tmp_path):
    """The 16-chain's lift has one point per prime, 15, all equivalent
    under the spectrum's preorder: 210 order pairs, the bulk of what
    ``adpt`` writes for it."""
    _, _, body = _run("adpt", bench_lifts()["lift-chain16"], tmp_path)
    doc = json.loads(body)
    assert len(doc["points"]) == doc["space"]["points"] == 15
    assert sorted(map(tuple, doc["space"]["leq"])) == [
        (x, y) for x in range(15) for y in range(15) if x != y]
