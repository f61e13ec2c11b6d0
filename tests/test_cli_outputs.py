"""Pinned CLI outputs for large payloads.

``test_sweep_records.py`` pins what the checks report; this file pins what
``adframe validate`` and ``adframe adpt`` write for lattice and ad-frame
documents of 16-32 elements, and what ``ado``, ``ads`` and ``sobrify``
write for three small spaces: the sha256 of the bytes on stdout, the text
on stderr and the exit code.  The payloads are chains and grids, their
two-sided lifts, one lift per frame law with one relation bit flipped so
that the law fails, one lattice document per failure of the lattice
reader, a lattice that is not distributive with its lift, and the spaces
under each variant the verb takes.  Recompute an entry with
``cli_outcome(verb, doc, tmp_path, *flags)``.  The last test checks the
CLI's JSON writer against ``json.dumps`` on random documents.
"""

import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from adframe.cli import _json_text, main

from adframe import space_to_json

from helpers import SIERPINSKI, chain_doc, flip_pair, grid_doc, lift_doc

LATTICES = {
    "chain16": chain_doc(16), "chain24": chain_doc(24), "chain32": chain_doc(32),
    "grid4x4": grid_doc(4, 4), "grid4x6": grid_doc(4, 6), "grid4x8": grid_doc(4, 8),
}

# (law, lattice, relation, pair): flipping the pair in that relation of
# the lattice's lift makes the law fail (with others, at times)
FLIPS = (
    ("tot-up-closed", "grid4x6", "tot", (16, 0)),
    ("tot-has-ff", "grid4x6", "tot", (3, 1)),
    ("tot-has-tt", "grid4x6", "tot", (20, 0)),
    ("tot-logical-meet", "grid4x8", "tot", (5, 1)),
    ("tot-logical-join", "grid4x6", "tot", (22, 0)),
    ("con-down-closed", "grid4x6", "con", (15, 1)),
    ("con-has-ff", "grid4x6", "con", (3, 1)),
    ("con-has-tt", "grid4x6", "con", (20, 0)),
    ("con-logical-meet", "grid4x6", "con", (21, 0)),
    ("con-logical-join", "grid4x8", "con", (4, 0)),
    ("con-tot-aligned", "grid4x6", "con", (9, 1)),
    ("fof-up-closed", "grid4x6", "fof", (16, 0)),
    ("fof-has-bots", "grid4x6", "fof", (3, 0)),
    ("fof-has-tops", "grid4x6", "fof", (20, 1)),
    ("fof-info-meet", "grid4x8", "fof", (5, 0)),
    ("fof-info-join", "grid4x6", "fof", (22, 0)),
    ("cou-down-closed", "grid4x6", "cou", (15, 1)),
    ("cou-has-bots", "grid4x6", "cou", (3, 0)),
    ("cou-has-tops", "grid4x6", "cou", (20, 1)),
    ("cou-info-meet", "grid4x6", "cou", (21, 1)),
    ("cou-info-join", "grid4x8", "cou", (4, 1)),
    ("cou-fof-aligned", "grid4x6", "cou", (9, 0)),
    ("con-cou-bottom", "grid4x8", "con", (10, 1)),
    ("tot-fof-top", "grid4x6", "fof", (8, 1)),
    ("con-fof-ell-bottom", "grid4x6", "fof", (3, 1)),
    ("tot-cou-ell-top", "grid4x6", "cou", (20, 0)),
)


def _order(pairs):
    return {"leq": sorted([list(p) for p in pairs])}


def _chain_under(low, high, below, above):
    """A chain ``low..high`` with ``below`` under all of it and ``above``
    over all of it, every element of ``below`` (``above``) incomparable
    with the others there."""
    elems = below + list(range(low, high + 1)) + above
    pairs = {(x, x) for x in elems}
    pairs |= {(i, j) for i in range(low, high + 1) for j in range(i, high + 1)}
    pairs |= {(b, x) for b in below for x in range(low, high + 1)}
    pairs |= {(x, t) for t in above for x in range(low, high + 1)}
    pairs |= {(b, t) for b in below for t in above}
    return _order(pairs)


def _without(doc, pair):
    return {"leq": [p for p in doc["leq"] if p != list(pair)]}


def _with_at(doc, k, pair):
    return {"leq": doc["leq"][:k] + [pair] + doc["leq"][k:]}


CHAIN16 = chain_doc(16)
BROKEN = {
    # (5, 5) is missing
    "not-reflexive": _without(CHAIN16, (5, 5)),
    # 3 is the bottom and 12 the top of the relabelled chain
    "not-antisymmetric": _order([tuple(p) for p in CHAIN16["leq"]] + [(12, 3)]),
    "not-transitive": _without(CHAIN16, (3, 12)),
    # 22 and 23 are two maximal elements, and no other pair lacks a bound
    "no-lub-late": _chain_under(0, 21, [], [22, 23]),
    "no-glb": _chain_under(2, 23, [0, 1], []),
    # glb of (0, 1) and lub of (22, 23) are both missing
    "no-lub-no-glb": _chain_under(2, 21, [0, 1], [22, 23]),
    "bad-pair": _with_at(_with_at(CHAIN16, 60, [0.5, 1]), 40, [True, 1]),
    "negative-index": _with_at(CHAIN16, 50, [-1, 4]),
}
# a chain 0 < ... < 16 with the diamond M3 on top: atoms 17, 18, 19, top 20
M3_ON_CHAIN = _chain_under(0, 16, [], [17, 18, 19])
M3_ON_CHAIN["leq"] = sorted(M3_ON_CHAIN["leq"] + [[x, 20] for x in range(21)])

# the 5-point poset 0 <= 2 >= 1 <= 3 <= 4 under its up-set topology
POSET5 = [[0, 2], [1, 2], [1, 3], [3, 4], [1, 4]]
SPACES = {
    "sierpinski": space_to_json(SIERPINSKI),
    "discrete4": {"points": 4, "leq": [],
                  "opens": [[p for p in range(4) if s >> p & 1] for s in range(16)]},
    "poset5": {"points": 5, "leq": POSET5,
               "opens": [[p for p in range(5) if s >> p & 1] for s in range(32)
                         if all(s >> y & 1 for x, y in POSET5 if s >> x & 1)]},
}


def cli_outcome(verb, doc, tmp_path, *flags):
    """(exit code, sha256 of stdout (16 hex digits), stderr) of
    ``adframe <verb> --in`` on ``doc`` with ``flags``."""
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([verb, "--in", str(path), *flags])
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16], err.getvalue()


def cases():
    """(case name, verb, document, flags) for every pinned call."""
    out = []
    for name, doc in LATTICES.items():
        out.append((name, "validate", doc, ()))
        out.append((f"lift-{name}", "validate", lift_doc(doc), ()))
        out.append((f"lift-{name}", "adpt", lift_doc(doc), ()))
    for law, name, rel, pair in FLIPS:
        out.append((f"flip-{law}", "validate",
                    flip_pair(lift_doc(LATTICES[name]), rel, pair), ()))
    for name, doc in BROKEN.items():
        out.append((name, "validate", doc, ()))
    out.append(("m3-on-chain", "validate", M3_ON_CHAIN, ()))
    out.append(("lift-m3-on-chain", "validate", lift_doc(M3_ON_CHAIN), ()))
    for name, doc in SPACES.items():
        for verb in ("ado", "ads"):
            for variant in ("up", "down", "both"):
                out.append((f"{name}-{variant}", verb, doc, ("--variant", variant)))
        out.append((name, "sobrify", doc, ()))
    return out


PINNED = {
    "validate chain16": (0, "055c6512d29831fd", ""),
    "validate lift-chain16": (0, "cfb33f902a50c5fc", ""),
    "adpt lift-chain16": (0, "6d9dee19126a9991", ""),
    "validate chain24": (0, "61bd35e37bf528df", ""),
    "validate lift-chain24": (0, "5f92fb69faf7ba52", ""),
    "adpt lift-chain24": (0, "2bda712949704273", ""),
    "validate chain32": (0, "ff0fb6cff047b89e", ""),
    "validate lift-chain32": (0, "021052b46aade75a", ""),
    "adpt lift-chain32": (0, "98abac1dee5ceed8", ""),
    "validate grid4x4": (0, "055c6512d29831fd", ""),
    "validate lift-grid4x4": (0, "cfb33f902a50c5fc", ""),
    "adpt lift-grid4x4": (0, "5ca6c98e0fc579f9", ""),
    "validate grid4x6": (0, "61bd35e37bf528df", ""),
    "validate lift-grid4x6": (0, "5f92fb69faf7ba52", ""),
    "adpt lift-grid4x6": (0, "8cb36cc41b5b9e4a", ""),
    "validate grid4x8": (0, "ff0fb6cff047b89e", ""),
    "validate lift-grid4x8": (0, "021052b46aade75a", ""),
    "adpt lift-grid4x8": (0, "140f9fafad2bbd4b", ""),
    "validate flip-tot-up-closed": (1, "058a8f4ad19f3e65", ""),
    "validate flip-tot-has-ff": (1, "0a359e01846d8bab", ""),
    "validate flip-tot-has-tt": (1, "fbbdda7123072d61", ""),
    "validate flip-tot-logical-meet": (1, "b21450d2e9ffe4a0", ""),
    "validate flip-tot-logical-join": (1, "f64de49fa3f1908e", ""),
    "validate flip-con-down-closed": (1, "f164827d9bd9265c", ""),
    "validate flip-con-has-ff": (1, "3f5ac9f76e8c6ce6", ""),
    "validate flip-con-has-tt": (1, "884a54e4722de728", ""),
    "validate flip-con-logical-meet": (1, "35c1550ceb637061", ""),
    "validate flip-con-logical-join": (1, "fc8f6bdc30face34", ""),
    "validate flip-con-tot-aligned": (1, "6956f06dd8a01183", ""),
    "validate flip-fof-up-closed": (1, "08e6c3180747cb5c", ""),
    "validate flip-fof-has-bots": (1, "b30893bf34a630a8", ""),
    "validate flip-fof-has-tops": (1, "c8d564d2caf880ff", ""),
    "validate flip-fof-info-meet": (1, "647a1aeda57a1d90", ""),
    "validate flip-fof-info-join": (1, "247d5fc7f98d6aff", ""),
    "validate flip-cou-down-closed": (1, "7f961348e09f0dcc", ""),
    "validate flip-cou-has-bots": (1, "99dce06d2740cf0c", ""),
    "validate flip-cou-has-tops": (1, "72d6036c92833a77", ""),
    "validate flip-cou-info-meet": (1, "2dbd5e59b25dcbc7", ""),
    "validate flip-cou-info-join": (1, "d41341a69d6b4f8b", ""),
    "validate flip-cou-fof-aligned": (1, "4b8287aa089aa613", ""),
    "validate flip-con-cou-bottom": (1, "8e822fc954869983", ""),
    "validate flip-tot-fof-top": (1, "227a3505dbba421a", ""),
    "validate flip-con-fof-ell-bottom": (1, "8b80e1113dfd61eb", ""),
    "validate flip-tot-cou-ell-top": (1, "117a6153054dc41e", ""),
    "validate not-reflexive": (2, "e3b0c44298fc1c14", "error: order not reflexive\n"),
    "validate not-antisymmetric": (2, "e3b0c44298fc1c14", "error: order not antisymmetric\n"),
    "validate not-transitive": (2, "e3b0c44298fc1c14", "error: order not transitive\n"),
    "validate no-lub-late": (2, "e3b0c44298fc1c14",
                             "error: elements 22, 23 have no least upper bound\n"),
    "validate no-glb": (2, "e3b0c44298fc1c14",
                        "error: elements 0, 1 have no greatest lower bound\n"),
    "validate no-lub-no-glb": (2, "e3b0c44298fc1c14",
                               "error: elements 0, 1 have no greatest lower bound\n"),
    "validate bad-pair": (2, "e3b0c44298fc1c14",
                          "error: order pair [True, 1] is not two integers\n"),
    "validate negative-index": (2, "e3b0c44298fc1c14",
                                "error: order pair (-1, 4) has a negative index\n"),
    "validate m3-on-chain": (0, "e215fc833eeed413", ""),
    "validate lift-m3-on-chain": (2, "e3b0c44298fc1c14",
                                  "error: omega lattice not distributive, witness (17, 18, 19)\n"),
    "ado sierpinski-up": (0, "d5a92ce77c8291f2", ""),
    "ado sierpinski-down": (0, "becf59aaa65db829", ""),
    "ado sierpinski-both": (0, "729dd7a025fc7194", ""),
    "ads sierpinski-up": (0, "7d2342f7ea10cdfb", ""),
    "ads sierpinski-down": (0, "3a4e6e511a88f454", ""),
    "ads sierpinski-both": (0, "7d2342f7ea10cdfb", ""),
    "sobrify sierpinski": (0, "1938cbbb6aad552f", ""),
    "ado discrete4-up": (0, "b82f6773d3b5db0e", ""),
    "ado discrete4-down": (0, "256c2e52aff55d00", ""),
    "ado discrete4-both": (0, "22903b238b4b7ff8", ""),
    "ads discrete4-up": (0, "ca24bbc704192e1d", ""),
    "ads discrete4-down": (0, "ca24bbc704192e1d", ""),
    "ads discrete4-both": (0, "ca24bbc704192e1d", ""),
    "sobrify discrete4": (0, "89c6bb50fe7014de", ""),
    "ado poset5-up": (0, "7fc2b2189d193661", ""),
    "ado poset5-down": (0, "2a6f164b2ee0b54c", ""),
    "ado poset5-both": (0, "9749c0031f595e80", ""),
    "ads poset5-up": (0, "65f9e4482abf7205", ""),
    "ads poset5-down": (0, "7d43e8a6739e032e", ""),
    "ads poset5-both": (0, "7d43e8a6739e032e", ""),
    "sobrify poset5": (0, "652550fe7a92e015", ""),
}


def test_every_case_is_pinned():
    assert [f"{verb} {name}" for name, verb, _, _ in cases()] == list(PINNED)


@pytest.mark.parametrize("name,verb,doc,flags",
                         [pytest.param(name, verb, doc, flags, id=f"{verb}-{name}")
                          for name, verb, doc, flags in cases()])
def test_cli_output_is_pinned(name, verb, doc, flags, tmp_path):
    assert cli_outcome(verb, doc, tmp_path, *flags) == PINNED[f"{verb} {name}"]


class _Dict(dict):
    pass


class _List(list):
    pass


class _Int(int):
    pass


INTS = st.integers(-2**70, 2**70)
TEXT = st.text(st.characters(exclude_categories=()), max_size=4)  # controls, surrogates, non-BMP
LEAVES = st.one_of(st.none(), st.booleans(), INTS, INTS.map(_Int), st.floats(), TEXT,
                   st.fractions(), st.lists(INTS, max_size=4),
                   st.lists(st.lists(INTS, max_size=3), max_size=4))
DOCS = st.recursive(LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=3).map(tuple),
    st.lists(kids, max_size=3).map(_List), st.dictionaries(TEXT, kids, max_size=4),
    st.dictionaries(TEXT, kids, max_size=3).map(_Dict),
    st.dictionaries(st.one_of(INTS, st.booleans()), kids, max_size=3),
    st.dictionaries(st.floats(), kids, max_size=3)), max_leaves=12)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(DOCS)
def test_json_writer_equals_the_stdlib(doc):
    """The CLI's writer gives the bytes of ``json.dumps(doc, indent=2,
    sort_keys=True, default=str)``: ints past 64 bits and int subclasses,
    nan, infinities and -0.0, control, surrogate and non-BMP characters,
    empty containers, tuples, dict and list subclasses, int, bool and
    float keys, and a leaf that only ``default=str`` can write."""
    assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True, default=str)
