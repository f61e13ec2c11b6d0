import contextlib
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from adframe import (AdPoint, adframe_to_json, build_ado, lattice_to_json,
                     run_check, space_to_json, subset_lattice)
from adframe import cli, duality
from adframe.cli import _json_text, main, render_dot
from adframe.theorems import _lookup, registry_ids

from helpers import CHAIN3, SIERPINSKI


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def payloads(tmp_path):
    paths = {}

    def dump(name, doc):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)

    dump("space", space_to_json(SIERPINSKI))
    dump("lattice", lattice_to_json(subset_lattice(CHAIN3, "opens")))
    frame_doc = adframe_to_json(build_ado(SIERPINSKI))
    dump("frame", frame_doc)
    broken_laws = dict(frame_doc)
    broken_laws["tot"] = [p for p in frame_doc["tot"] if p != [2, 2]]
    dump("lawless", broken_laws)
    dump("bad_topology", {"points": 3, "opens": [[], [0], [1], [0, 1, 2]],
                          "leq": []})
    paths["garbage"] = str(tmp_path / "garbage.json")
    (tmp_path / "garbage.json").write_text("{nope")
    return paths


# ---------------------------------------------------------------------------
# validate


def test_validate_each_payload_kind(payloads):
    for name, kind in (("space", "space"), ("lattice", "lattice"),
                       ("frame", "adframe")):
        code, out, _ = run_cli("validate", "--in", payloads[name])
        assert code == 0
        assert json.loads(out)["kind"] == kind


def test_validate_lawless_frame_exits_one(payloads):
    code, out, _ = run_cli("validate", "--in", payloads["lawless"])
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert any(f["law"].startswith("tot") for f in doc["failures"])


def test_malformed_inputs_exit_two(payloads):
    for path in (payloads["bad_topology"], payloads["garbage"], "/no/such.json"):
        code, _, err = run_cli("validate", "--in", path)
        assert code == 2
        assert err.strip().startswith("error:")


def test_deeply_nested_payload_exits_two(tmp_path):
    """JSON nested past the parser's recursion limit is malformed input,
    for every verb that reads ``--in``, not a traceback."""
    for name, text in (("lists", "[" * 100_000 + "]" * 100_000),
                       ("leq", '{"leq": ' + "[" * 5_000 + "]" * 5_000 + "}")):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        for argv in (("validate", "--in", str(path)),
                     ("check", "--id", "IDEMPOTENT", "--in", str(path))):
            assert run_cli(*argv) == (2, "", "error: payload nests too deeply\n"), argv


def test_oversized_lattice_indices_exit_two(tmp_path):
    huge = {"leq": [[0, 0], [0, 10000000]]}
    small = lattice_to_json(subset_lattice(CHAIN3, "opens"))
    for name, doc in (("lattice", huge), ("frame", {"omega": huge, "ell": small})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli("validate", "--in", str(path))
        assert code == 2
        assert err.strip() == "error: lattice has 10000001 elements, cap is 4096"


@pytest.mark.parametrize("k", [13, 20])
def test_completed_space_over_the_open_cap_exits_two_quickly(tmp_path, k):
    """k singleton generators complete to 2^k + 1 opens on 64 points; past
    the 4,096-open cap the completion stops at once, not after hours."""
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"points": 64, "opens": [[i] for i in range(k)],
                                "complete": True}))
    start = time.perf_counter()
    result = run_cli("validate", "--in", str(path))
    assert time.perf_counter() - start < 1.0
    assert result == (2, "", "error: completed open family exceeds cap 4096\n")


def test_every_subset_of_twelve_points_validates_quickly(tmp_path):
    """The 4,096 opens of the discrete space on 12 points pass the closure
    test quickly: each open is tried only against the least open around
    each point (0.15 s on a 2-core host; about 2 s for a pairwise scan)."""
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"points": 12, "opens": list(range(4096))}))
    start = time.perf_counter()
    code, out, _ = run_cli("validate", "--in", str(path))
    assert time.perf_counter() - start < 1.5
    assert code == 0 and json.loads(out)["opens"] == 4096


def test_twelve_points_missing_one_open_names_a_failing_union(tmp_path):
    missing = 0xFFF & ~(1 << 5)
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"points": 12,
                                "opens": [u for u in range(4096) if u != missing]}))
    code, out, err = run_cli("validate", "--in", str(path))
    assert (code, out) == (2, "")
    found = re.fullmatch(r"error: opens not closed under union: (\(.*\)) \| (\(.*\))\n", err)
    assert found, err
    a, b = (set(json.loads("[" + group.strip("(,)") + "]")) for group in found.groups())
    rest = set(range(12)) - {5}
    assert a | b == rest and rest not in (a, b)      # a genuine pair of opens


def test_space_listing_more_opens_than_the_cap_exits_two(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"points": 64, "opens": list(range(4097))}))
    assert run_cli("validate", "--in", str(path)) == (
        2, "", "error: space has 4097 opens, cap is 4096\n")


def test_non_integer_pair_indices_exit_two(tmp_path):
    """Floats and booleans are rejected, not truncated to other pairs."""
    frame = adframe_to_json(build_ado(SIERPINSKI))
    lattice = lattice_to_json(subset_lattice(CHAIN3, "opens"))
    space = space_to_json(SIERPINSKI)
    for bad in ([0.5, 1], [True, 1], [1.0, 1], ["0", "1"], [0, 1, 2], 3):
        for key, doc in (("tot", frame), ("leq", lattice), ("leq", space)):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(dict(doc, **{key: [bad] + doc[key]})))
            code, out, err = run_cli("validate", "--in", str(path))
            assert (code, out) == (2, ""), (key, bad)
            assert err.startswith("error: ") and "is not two integers" in err


_BAD_PAIRS = {"three": [1, 2, 3], "float": [1.0, 2], "bool": [True, 1], "text": "ab",
              "object": {"0": 1}, "empty": [], "negative": [-1, 0]}
_BAD_PAIR_MESSAGES = {
    ("three", "lattice"): "order pair [1, 2, 3] is not two integers",
    ("three", "frame"): "tot pair [1, 2, 3] is not two integers",
    ("three", "space"): "order pair [1, 2, 3] is not two integers",
    ("float", "lattice"): "order pair [1.0, 2] is not two integers",
    ("float", "frame"): "tot pair [1.0, 2] is not two integers",
    ("float", "space"): "order pair [1.0, 2] is not two integers",
    # a lattice's [True, 1] is pinned in test_cli_outputs.py
    ("bool", "frame"): "tot pair [True, 1] is not two integers",
    ("bool", "space"): "order pair [True, 1] is not two integers",
    ("text", "lattice"): "order pair 'ab' is not two integers",
    ("text", "frame"): "tot pair 'ab' is not two integers",
    ("text", "space"): "order pair 'ab' is not two integers",
    ("object", "lattice"): "order pair {'0': 1} is not two integers",
    ("object", "frame"): "tot pair {'0': 1} is not two integers",
    ("object", "space"): "order pair {'0': 1} is not two integers",
    ("empty", "lattice"): "order pair [] is not two integers",
    ("empty", "frame"): "tot pair [] is not two integers",
    ("empty", "space"): "order pair [] is not two integers",
    # a lattice's negative index is pinned in test_cli_outputs.py
    ("negative", "frame"): "tot pair (-1, 0) out of range",
    ("negative", "space"): "order pair (-1, 0) out of range for 2 points",
}


@pytest.mark.parametrize("bad,kind", list(_BAD_PAIR_MESSAGES))
def test_a_malformed_pair_exits_two_with_its_message(tmp_path, bad, kind):
    """A pair that is not two integers, or one out of range, ends the call
    with exit 2 and the message naming it, in a lattice's ``leq``, in a
    frame relation and in a space's ``leq``."""
    key, doc = {"lattice": ("leq", lattice_to_json(subset_lattice(CHAIN3, "opens"))),
                "frame": ("tot", adframe_to_json(build_ado(SIERPINSKI))),
                "space": ("leq", space_to_json(SIERPINSKI))}[kind]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(doc, **{key: [_BAD_PAIRS[bad]] + doc[key]})))
    assert run_cli("validate", "--in", str(path)) == (
        2, "", f"error: {_BAD_PAIR_MESSAGES[bad, kind]}\n")


def test_non_list_fields_exit_two(tmp_path):
    """A field that must be a list names itself when it is not one, and so
    does a field that no reader knows."""
    frame = adframe_to_json(build_ado(SIERPINSKI))
    lattice = lattice_to_json(subset_lattice(CHAIN3, "opens"))
    space = space_to_json(SIERPINSKI)
    no_ell = {key: value for key, value in frame.items() if key != "ell"}
    for doc, message in (
            ({"points": 2, "opens": [[], [1], [0, 1]], "order": [[1, 0]]},
             "space has unknown field 'order'"),
            (dict(lattice, lables=[]), "lattice has unknown field 'lables'"),
            (dict(frame, Tot=[]), "frame has unknown field 'Tot'"),
            (dict(frame, points=2), "frame has unknown field 'points'"),
            (dict(frame, ell=dict(frame["ell"], top=1)),
             "ell has unknown field 'top'"),
            (dict(space, opens=5), "opens must be a list, not 5"),
            (dict(space, leq=5), "order pairs must be a list, not 5"),
            (dict(lattice, leq=5), "order pairs must be a list, not 5"),
            (dict(lattice, labels=5), "labels must be a list, not 5"),
            (dict(frame, tot=5), "tot pairs must be a list, not 5"),
            (dict(frame, cou=5), "cou pairs must be a list, not 5"),
            ({"omega": 5, "ell": {"leq": [[0, 0]]}}, "omega must be an object, not 5"),
            (dict(frame, ell=[1]), "ell must be an object, not [1]"),
            (dict(frame, omega={"labels": [[]]}), "omega has no leq field"),
            (no_ell, "frame has no ell field")):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli("validate", "--in", str(path))
        assert (code, out, err.strip()) == (2, "", f"error: {message}"), doc


def test_non_integer_space_fields_exit_two(tmp_path):
    """A space's point count, opens and flags are read strictly too."""
    space = space_to_json(SIERPINSKI)
    for key, bad, message in (
            ("points", "2", "space points '2' is not an integer"),
            ("points", True, "space points True is not an integer"),
            ("points", 2.7, "space points 2.7 is not an integer"),
            ("opens", [0, True, 3], "subset True is neither a mask nor a list of indices"),
            ("opens", [[], [True], [0, 1]], "subset index True is not an integer"),
            ("opens", [[], [1.0], [0, 1]], "subset index 1.0 is not an integer"),
            ("opens", [[], "1", [0, 1]], "subset '1' is neither a mask nor a list of indices"),
            ("strict", "no", "space strict 'no' is not a boolean"),
            ("complete", 1, "space complete 1 is not a boolean")):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(space, **{key: bad})))
        for verb in ("validate", "ado"):
            code, out, err = run_cli(verb, "--in", str(path))
            assert (code, out, err.strip()) == (2, "", f"error: {message}"), (key, bad)


class _Int(int):
    pass


_INTS = st.integers(-2**70, 2**70)
_PAIRS = st.lists(st.integers(-2**70, 2**70), min_size=2, max_size=2)
# entries the pair template must not take: bools, int subclasses, ints
# past 64 bits among them, and int lists of other lengths, the empty one too
_NOT_PAIRS = st.one_of(st.lists(st.one_of(_INTS, st.booleans(), _INTS.map(_Int)),
                                min_size=2, max_size=2),
                       st.lists(_INTS, max_size=4), st.lists(_INTS, min_size=3, max_size=4))
# all pairs, or mostly pairs, so that one odd entry decides the path
_PAIR_LISTS = st.one_of(st.lists(_PAIRS, max_size=8),
                        st.lists(st.one_of(_PAIRS, _PAIRS, _NOT_PAIRS), max_size=6))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(_PAIR_LISTS, _PAIR_LISTS.map(lambda doc: {"leq": doc}),
                 _PAIR_LISTS.map(lambda doc: [[doc]])))
def test_json_writer_equals_the_stdlib_on_pair_lists(doc):
    """Relation and order pairs, the bulk of what ``adpt`` and ``ado``
    write, come out of the CLI's writer as ``json.dumps(doc, indent=2,
    sort_keys=True, default=str)`` writes them, at any depth, and so do
    pair lists mixed with entries that are not two exact ints."""
    assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True, default=str)


# ---------------------------------------------------------------------------
# construction verbs


def test_ado_output_roundtrips(payloads, tmp_path):
    out_path = str(tmp_path / "frame_out.json")
    code, _, _ = run_cli("ado", "--in", payloads["space"], "--variant", "both",
                         "--out", out_path)
    assert code == 0
    doc = json.loads(open(out_path).read())
    assert doc["variant"] == "both"
    code, out, _ = run_cli("validate", "--in", out_path)
    assert code == 0 and json.loads(out)["ok"] is True
    # no stray temp files from the atomic write
    assert [f for f in os.listdir(tmp_path) if f.startswith(".adframe-")] == []


def test_adpt_accepts_space_or_frame(payloads):
    code_a, out_a, _ = run_cli("adpt", "--in", payloads["space"])
    code_b, out_b, _ = run_cli("adpt", "--in", payloads["frame"])
    assert code_a == code_b == 0
    assert json.loads(out_a)["points"] == json.loads(out_b)["points"]
    assert json.loads(out_a)["points"] == [{"x": [2], "s": [1, 2]},
                                           {"x": [1, 2], "s": [2]}]


def test_adpt_on_the_discrete_six_point_space(tmp_path):
    # its up-set lattice has 64 elements, so masks reach bit 63
    path = tmp_path / "discrete6.json"
    path.write_text(json.dumps({"points": 6,
                                "opens": [[p for p in range(6) if s >> p & 1]
                                          for s in range(64)],
                                "leq": []}))
    code, out, _ = run_cli("adpt", "--in", str(path))
    assert code == 0
    assert len(json.loads(out)["points"]) == 6


def test_ads_and_sobrify_shapes(payloads):
    code, out, _ = run_cli("ads", "--in", payloads["space"], "--variant", "up")
    assert code == 0
    assert len(json.loads(out)["pairs"]) == 2
    code, out, _ = run_cli("sobrify", "--in", payloads["space"])
    assert code == 0
    assert json.loads(out)["unit"] == [0, 1]


def test_construction_verbs_need_space_payload(payloads):
    code, _, err = run_cli("ads", "--in", payloads["lattice"])
    assert code == 2 and "space payload" in err


# ---------------------------------------------------------------------------
# check and sweep


def test_check_emits_ndjson_records():
    code, out, _ = run_cli("check", "--id", "IDEMPOTENT", "--sweep", "n=2")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 48
    assert {r["verdict"] for r in records} == {"pass"}
    assert set(records[0]) == {"id", "instance", "verdict", "witness", "ms"}


def test_check_expected_fail_still_exits_zero():
    code, out, _ = run_cli("check", "--id", "CEX-ADS", "--sweep", "n=2")
    assert code == 0
    verdicts = {json.loads(l)["verdict"] for l in out.strip().splitlines()}
    assert verdicts == {"expected-fail"}


def test_check_with_payload_file(payloads):
    code, out, _ = run_cli("check", "--id", "IDEMPOTENT", "--in",
                           payloads["frame"])
    assert code == 0
    assert json.loads(out.strip().splitlines()[0])["verdict"] == "pass"


def test_check_usage_errors(payloads, tmp_path):
    code, _, err = run_cli("check", "--id", "NOPE", "--sweep", "n=1")
    assert code == 2 and "known ids" in err
    code, _, err = run_cli("check", "--id", "ADO-VALID", "--sweep", "bogus")
    assert code == 2
    code, _, err = run_cli("check", "--id", "ADO-VALID", "--sweep", "count=3")
    assert code == 2  # n is required
    for verb, flag, message in (
            ("check", "n=5", "sweep n=5 is outside [0, 4]"),
            ("sweep", "n=-1", "sweep n=-1 is outside [0, 4]"),
            ("check", "n=2,count=-2", "sweep count=-2 must be at least 1"),
            ("sweep", "n=2,count=0", "sweep count=0 must be at least 1"),
            ("check", "n=abc", "sweep component 'n=abc' needs an integer value"),
            ("sweep", "n=1,count=2,count=3", "sweep key 'count' is given twice")):
        ids = ("--id", "ADJ-EXISTS") if verb == "check" else ()
        code, out, err = run_cli(verb, *ids, "--sweep", flag)
        assert (code, out, err.strip()) == (2, "", f"error: {message}")
    no_points = tmp_path / "no_points.json"
    no_points.write_text(json.dumps({"opens": [[], [0]]}))
    for argv, message in (
            (("check", "--id", "ADO-VALID", "--in", str(no_points)),
             "space has no points field"),
            (("check", "--id", "ADO-VALID", "--in", payloads["space"],
              "--sweep", "n=2"), "--in excludes --sweep and --seed"),
            (("check", "--id", "ADO-VALID", "--in", payloads["space"],
              "--seed", "0"), "--in excludes --sweep and --seed"),
            (("check", "--id", "EPS-VALID", "--in", payloads["frame"],
              "--variant", "up"), "--variant applies only to a space payload"),
            (("check", "--id", "IND-VALID", "--in", payloads["lattice"],
              "--variant", "both"), "--variant applies only to a space payload"),
            (("adpt", "--in", payloads["frame"], "--variant", "down"),
             "--variant applies only to a space payload")):
        code, out, err = run_cli(*argv)
        assert (code, out, err.strip()) == (2, "", f"error: {message}"), argv
    # flags a verb does not declare are refused by the parser
    for argv in (("validate", "--in", payloads["space"], "--variant", "up"),
                 ("sobrify", "--in", payloads["space"], "--variant", "up"),
                 ("render", "--in", payloads["space"], "--variant", "up"),
                 ("sweep", "--in", payloads["space"])):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2, argv


def test_empty_pools_sweep_nothing():
    # no lattice with two elements and no qualifying space on 0 points
    code, out, err = run_cli("sweep", "--sweep", "n=0,count=3")
    assert (code, err) == (0, "")
    ids = [json.loads(line)["id"] for line in out.splitlines()]
    for cid in registry_ids():
        code, one, err = run_cli("check", "--id", cid, "--sweep", "n=0,count=3")
        assert (code, err) == (0, ""), cid
        assert len(one.splitlines()) == ids.count(cid), cid
        if cid in ("CEX-ADS", "CEX-LIFT", "IND-ADJ"):
            assert one == "", cid


def _sweep_records(*flags):
    code, out, err = run_cli("sweep", *flags)
    assert (code, err) == (0, "")
    records = [json.loads(line) for line in out.splitlines()]
    return [dict(r, ms=0) for r in records]


def test_sweep_count_draws_per_universe():
    """count=C draws C seeded instances from each universe a check sweeps:
    NAT-IND and NAT-DISCR sweep topologies and maps, every other check one
    universe."""
    first = _sweep_records("--sweep", "n=3,count=3", "--seed", "5")
    for cid in registry_ids():
        want = 6 if cid in ("NAT-IND", "NAT-DISCR") else 3
        assert sum(r["id"] == cid for r in first) == want, cid
    assert _sweep_records("--sweep", "n=3,count=3", "--seed", "5") == first
    other = _sweep_records("--sweep", "n=3,count=3", "--seed", "6")
    assert [r["instance"] for r in other] != [r["instance"] for r in first]


def test_check_budget_exit_code():
    code, out, err = run_cli("check", "--id", "ADS-ISO", "--sweep", "n=3",
                             "--budget-ms", "1")
    assert code == 1
    assert "budget" in err


@pytest.mark.parametrize("budget", ["nan", "-5"])
def test_check_refuses_a_bad_budget(budget):
    code, out, err = run_cli("check", "--id", "ADO-VALID", "--sweep", "n=3",
                             "--budget-ms", budget)
    assert (code, out) == (2, "")
    assert err == (f"error: budget_ms={float(budget)!r} must be a number of "
                   f"milliseconds, at least 0\n")


def test_sweep_all_checks_smallest_size():
    code, out, _ = run_cli("sweep", "--sweep", "n=1", "--seed", "0")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert {r["verdict"] for r in records} <= {"pass", "skip", "expected-fail"}
    assert len({r["id"] for r in records}) >= 15


def _masked(result):
    code, out, err = result
    return code, [dict(json.loads(line), ms=0) for line in out.splitlines()], err


def _fail_on_down(monkeypatch, cid):
    """Make ``cid`` fail on every instance read under Down."""
    entry = _lookup(cid)
    real = entry.run
    monkeypatch.setattr(entry, "run", lambda inst: (False, "forced")
                        if inst.describe.get("variant") == "down" else real(inst))


def test_check_and_sweep_share_one_run_path(monkeypatch):
    """For one id, check and sweep give the same records, stderr and exit
    code, including the records kept when the budget runs out and the stop
    at the first failing record."""
    runs = [("--id", "ADO-VALID", "--sweep", "n=2"),
            ("--id", "ADS-ISO", "--sweep", "n=3", "--budget-ms", "0")]
    for flags in runs:
        assert _masked(run_cli("check", *flags)) == _masked(run_cli("sweep", *flags))
    code, records, err = _masked(run_cli("check", *runs[1]))
    assert (code, len(records)) == (1, 1)
    assert err == "error: ADS-ISO: budget of 0 ms exhausted after 1 instances\n"
    _fail_on_down(monkeypatch, "IDEMPOTENT")
    flags = ("--id", "IDEMPOTENT", "--sweep", "n=2", "--fail-fast")
    code, records, err = _masked(run_cli("check", *flags))
    assert (code, err) == (1, "")
    assert [r["verdict"] for r in records] == ["pass", "fail"]
    assert _masked(run_cli("sweep", *flags)) == (code, records, err)


def test_one_parser_serves_a_sequence_of_calls(payloads, tmp_path, monkeypatch):
    """The parser is built once per process.  Each call of a sequence,
    a usage error among them, gives the code, stdout and stderr it gives
    on a parser that has served no other call; ``ms`` is zeroed."""
    def outcome(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return code, re.sub(r'"ms": [^,}]+', '"ms": 0', out.getvalue()), err.getvalue()

    chain3 = tmp_path / "chain3.json"        # its up spectrum is not its both one
    chain3.write_text(json.dumps(space_to_json(CHAIN3)))
    calls = (("adpt", "--in", str(chain3), "--variant", "up"),
             ("adpt", "--in", str(chain3)),
             ("adpt", "--in", str(chain3), "--sweep", "n=1"),
             ("check", "--id", "IDEMPOTENT", "--in", payloads["frame"]),
             ("sweep", "--sweep", "n=1"))
    together = [outcome(argv) for argv in calls]
    alone = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", cli._build_parser())
        alone.append(outcome(argv))
    assert together == alone
    assert together[0][1] != together[1][1]          # the variant is read anew
    assert together[2][0] == 2 and "unrecognized arguments" in together[2][2]
    assert {json.loads(line)["id"] for line in together[4][1].splitlines()} \
        == set(registry_ids()) - {"CEX-ADS", "CEX-LIFT"}


def test_sweep_fail_fast_stops_after_the_failing_id(monkeypatch):
    _fail_on_down(monkeypatch, "IDEMPOTENT")
    code, records, err = _masked(run_cli("sweep", "--sweep", "n=1", "--fail-fast"))
    assert (code, err) == (1, "")
    ids = list(registry_ids())
    assert {r["id"] for r in records} <= set(ids[:ids.index("IDEMPOTENT") + 1])
    assert (records[-1]["id"], records[-1]["verdict"]) == ("IDEMPOTENT", "fail")
    code, records, _ = _masked(run_cli("sweep", "--sweep", "n=1"))
    assert code == 1 and records[-1]["id"] == "LIFT-SQUARE"  # CEX-LIFT: none at n=1


def test_sweep_can_filter_to_one_id():
    code, out, _ = run_cli("sweep", "--id", "ADO-VALID", "--sweep", "n=2")
    assert code == 0
    assert {json.loads(l)["id"] for l in out.strip().splitlines()} == {"ADO-VALID"}


def test_a_construction_error_fails_its_record(monkeypatch):
    """When a spectrum map leaves the spectrum, ADJ-EXISTS and the
    roundtrips of ADJ-TRIANGLE fail the record with the error's message
    instead of ending the run, and ``sweep`` writes every record."""
    monkeypatch.setattr(duality, "pullback_point", lambda hom, pt: AdPoint(-1, -1))
    message = "along the hom is not a point"
    verdicts = {}
    for cid in ("ADJ-EXISTS", "ADJ-TRIANGLE"):
        for r in run_check(cid, sweep={"n": 1}):
            verdicts.setdefault((cid, r.instance["kind"]), set()).add(r.verdict)
            assert (r.verdict == "fail") == (message in str(r.witness)), r
    assert verdicts == {("ADJ-EXISTS", "morphism"): {"fail"},
                        ("ADJ-TRIANGLE", "triangle"): {"pass"},
                        ("ADJ-TRIANGLE", "roundtrip"): {"fail"}}
    code, records, err = _masked(run_cli("sweep", "--id", "ADJ-EXISTS", "--sweep", "n=1"))
    assert (code, err) == (1, "")
    assert records and all(r["verdict"] == "fail" and message in r["witness"]
                           for r in records)
    assert len(records) == len(run_check("ADJ-EXISTS", sweep={"n": 1}))


# ---------------------------------------------------------------------------
# render


def test_render_space_condenses_order_classes(payloads, tmp_path):
    cyclic = space_to_json(SIERPINSKI)
    cyclic["leq"] = [[0, 1], [1, 0]]
    p = tmp_path / "cyclic.json"
    p.write_text(json.dumps(cyclic))
    code, out, _ = run_cli("render", "--in", str(p))
    assert code == 0
    assert out.startswith("digraph pretop")
    assert '"0,1"' in out  # the two-element class renders as one node


def test_render_lattice_and_frame(payloads):
    code, out, _ = run_cli("render", "--in", payloads["lattice"])
    assert code == 0 and "digraph lattice" in out
    code, out, _ = run_cli("render", "--in", payloads["frame"])
    assert code == 0
    for color in ("red", "blue", "darkgreen", "orange"):
        assert f"color={color}" in out
    assert "cluster_o" in out and "cluster_l" in out


def test_render_too_large_exits_two(tmp_path, monkeypatch):
    import adframe.cli as cli_mod
    assert cli_mod.RENDER_NODE_CAP == 256
    monkeypatch.setattr(cli_mod, "RENDER_NODE_CAP", 3)
    p = tmp_path / "small.json"
    p.write_text(json.dumps(lattice_to_json(subset_lattice(CHAIN3, "opens"))))
    code, _, err = run_cli("render", "--in", str(p))
    assert code == 2
    assert "caps at 3" in err


def test_render_dot_is_importable_api():
    text = render_dot(SIERPINSKI)
    assert "rankdir=BT" in text


# ---------------------------------------------------------------------------
# the installed entry point


def test_module_entry_point_subprocess(payloads):
    proc = subprocess.run(
        [sys.executable, "-m", "adframe.cli", "validate", "--in",
         payloads["space"]],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


# ---------------------------------------------------------------------------
# demos


DEMOS = sorted(pathlib.Path(__file__).resolve().parent.parent.glob("demos/*.py"))


# the sha256 of each demo's stdout; it does not depend on PYTHONHASHSEED
DEMO_OUTPUTS = {
    "01_spaces_and_lattices.py":
        "41a3fd099afd72f1f7e3d8d459ddd3cfa59418e3b5d80ae9549ebafe9523484f",
    "02_frames_and_validation.py":
        "0e1789169b6f011ddab2f551e18ba1e07ee946e0284a4a1dbccafd02990f7c51",
    "03_points_and_spectra.py":
        "591be9dcfb8b120cc3736078dc33c1d021b99b745efdcb95bc64f04f77df0534",
    "04_sobrification.py":
        "0b5915b7f8abbf155725d52db3e1b6091a10257271301d7c2de2bef101016edb",
    "05_check_registry.py":
        "5eb016786dfbaa8c9fb938ac91b0305c397a1bcb143855e3f6401cd01cafa89e",
}


def test_demos_run():
    assert [demo.name for demo in DEMOS] == sorted(DEMO_OUTPUTS)
    for demo in DEMOS:
        proc = subprocess.run([sys.executable, str(demo)], capture_output=True)
        assert proc.returncode == 0, (demo.name, proc.stderr.decode())
        digest = hashlib.sha256(proc.stdout).hexdigest()
        assert digest == DEMO_OUTPUTS[demo.name], (demo.name, proc.stdout.decode())
