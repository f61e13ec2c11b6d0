"""Command line for the finite duality laboratory.

Verbs: validate a payload, build the frame / spectrum / pair-space /
sobrification constructions, run registered checks singly or as sweeps,
and render DOT drawings.  Payload kind (space, ad-frame, lattice) is
detected from the JSON keys.  Each verb declares only the flags it reads,
and ``check`` and ``sweep`` share one run path (``_cmd_run``): ``check``
is ``sweep`` narrowed to one id, or run over a payload instead of a sweep.
``--variant`` reads a space payload (a frame carries its own variant),
and ``check --in`` takes no ``--sweep`` or ``--seed``.  Exit codes: 0
success (expected failures and skips included), 1 failed checks or
exhausted budgets, 2 bad usage or malformed input, including a refused
flag combination, a payload field no reader knows and a payload nested
too deeply to parse.  The parser is built once per process, and
documents are written by ``_json_text``, byte-identical to
``json.dumps(doc, indent=2, sort_keys=True, default=str)``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from itertools import chain
from json.encoder import encode_basestring_ascii

from .bits import bits_of
from .errors import AdframeError, BudgetExceeded, InternalCheckError, TooLarge
from .finord import (FinLattice, FinPreTopSpace, lattice_analyze,
                     lattice_from_json, point_classes, space_from_json,
                     space_to_json)
from .frames import (AdFrame, Variant, adframe_from_json, adframe_to_json,
                     build_ado, rel_pairs, validate_adframe)
from .duality import adpt_space
from .sobrify import ads_space, standard_sobrification
from . import theorems

RENDER_NODE_CAP = 256


# ---------------------------------------------------------------------------
# payload and output plumbing


def _read_payload(path: str):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("payload nests too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("payload must be a JSON object")
    if "omega" in doc:
        return adframe_from_json(doc)
    if "points" in doc or "opens" in doc:
        return space_from_json(doc)
    if "leq" in doc:
        return lattice_from_json(doc)
    raise ValueError(
        "unrecognized payload: expected a space, ad-frame, or lattice document")


def _require_space(payload) -> FinPreTopSpace:
    if not isinstance(payload, FinPreTopSpace):
        raise ValueError("this verb needs a space payload")
    return payload


def _emit(text: str, out_path) -> None:
    if text and not text.endswith("\n"):
        text += "\n"
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".adframe-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _json_key(key) -> str:
    """A dict key as the stdlib writes it: a str, or the JSON of an int,
    float, bool or None, in quotes."""
    if not isinstance(key, (str, int, float, type(None))):
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return encode_basestring_ascii(key if isinstance(key, str) else json.dumps(key))


def _json_text(doc, pad="\n") -> str:
    """``json.dumps(doc, indent=2, sort_keys=True, default=str)``, byte for
    byte.  With ``indent`` set the stdlib encodes in pure Python, one small
    string per value; here a list of ints is one join, and a list of int
    pairs (relation and order pairs) one ``%`` template per pair.  ``pad``
    is the newline and indent of the value's own line."""
    inner = pad + "  "
    if isinstance(doc, dict):
        parts, ends = [_json_key(k) + ": " + _json_text(v, inner)
                       for k, v in sorted(doc.items())], "{}"
    elif not isinstance(doc, (list, tuple)):
        return json.dumps(doc, default=str)
    else:
        types, deeper, ends = set(map(type, doc)), inner + "  ", "[]"
        if types == {int}:
            parts = map(int.__repr__, doc)
        elif (types == {list} and set(map(len, doc)) == {2}
              and set(map(type, chain.from_iterable(doc))) == {int}):
            pair = "[" + deeper + "%d," + deeper + "%d" + inner + "]"
            parts = [pair % (x, y) for x, y in doc]
        else:
            parts = [_json_text(x, inner) for x in doc]
    return ends[0] + inner + ("," + inner).join(parts) + pad + ends[1] if doc else ends


def _emit_json(doc, out_path) -> None:
    _emit(_json_text(doc), out_path)


def _record_lines(reports) -> str:
    return "\n".join(json.dumps(r.to_json(), sort_keys=True, default=str)
                     for r in reports)


# ---------------------------------------------------------------------------
# construction verbs


def _cmd_validate(args) -> int:
    payload = _read_payload(args.infile)
    if isinstance(payload, AdFrame):
        report = validate_adframe(payload)
        doc = {"kind": "adframe", "variant": payload.variant.value,
               "omega": payload.omega.m, "ell": payload.ell.m,
               "ok": report.ok,
               "failures": [{"law": c.law, "witness": c.witness}
                            for c in report.failures()]}
        _emit_json(doc, args.out)
        return 0 if report.ok else 1
    if isinstance(payload, FinLattice):
        analysis = lattice_analyze(payload)
        doc = {"kind": "lattice", "size": payload.m,
               "distributive": analysis.distributive, "ok": True}
        _emit_json(doc, args.out)
        return 0
    doc = {"kind": "space", "points": payload.n,
           "opens": len(payload.opens), "ok": True}
    _emit_json(doc, args.out)
    return 0


def _cmd_ado(args) -> int:
    space = _require_space(_read_payload(args.infile))
    frame = build_ado(space, _space_variant(space, args.variant))
    _emit_json(adframe_to_json(frame), args.out)
    return 0


def _cmd_adpt(args) -> int:
    payload = _read_payload(args.infile)
    variant = _space_variant(payload, args.variant)
    if isinstance(payload, FinPreTopSpace):
        payload = build_ado(payload, variant)
    if not isinstance(payload, AdFrame):
        raise ValueError("adpt needs an ad-frame or space payload")
    spectrum = adpt_space(payload)
    doc = {"space": space_to_json(spectrum.space),
           "points": [{"x": bits_of(pt.x), "s": bits_of(pt.s)}
                      for pt in spectrum.points],
           "open_map": [bits_of(m) for m in spectrum.open_map],
           "upset_map": [bits_of(m) for m in spectrum.upset_map]}
    _emit_json(doc, args.out)
    return 0


def _cmd_ads(args) -> int:
    space = _require_space(_read_payload(args.infile))
    res = ads_space(space, _space_variant(space, args.variant))
    doc = {"space": space_to_json(res.space),
           "pairs": [{"closed": bits_of(pr.closed), "class": bits_of(pr.cls)}
                     for pr in res.pairs],
           "diamond": [bits_of(m) for m in res.diamond_map],
           "bracket": [bits_of(m) for m in res.bracket_map]}
    _emit_json(doc, args.out)
    return 0


def _cmd_sobrify(args) -> int:
    space = _require_space(_read_payload(args.infile))
    top, unit = standard_sobrification(space)
    doc = {"space": {"points": top.n, "opens": [bits_of(u) for u in top.opens]},
           "unit": list(unit)}
    _emit_json(doc, args.out)
    return 0


# ---------------------------------------------------------------------------
# checks


def _parse_sweep_flag(raw: str) -> dict:
    """The syntax of ``--sweep``: ``key=value`` parts with the keys n
    (required) and count, each once, and integer values; ``run_check``
    checks the values."""
    out = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad sweep component {part!r}; expected key=value")
        key, value = part.split("=", 1)
        key = key.strip()
        if key not in ("n", "count"):
            raise ValueError(f"unknown sweep key {key!r}; use n or count")
        if key in out:
            raise ValueError(f"sweep key {key!r} is given twice")
        try:
            out[key] = int(value)
        except ValueError:
            raise ValueError(f"sweep component {part!r} needs an integer value") from None
    if "n" not in out:
        raise ValueError("sweep needs n=K")
    return out


def _space_variant(payload, variant) -> Variant:
    """The variant a payload is read under: ``--variant`` (default both)
    for a space; a frame or a lattice payload takes no ``--variant``."""
    if variant is not None and not isinstance(payload, FinPreTopSpace):
        raise ValueError("--variant applies only to a space payload")
    return Variant.parse(variant or "both")


def _cmd_run(args) -> int:
    """``check`` and ``sweep``: run the ids (``--id``, or every id) over
    the payload's instances or over the sweep, and write their records.
    A budget stops the run with the records made so far; ``--fail-fast``
    stops it after the first id with a failing record."""
    ids = [args.id] if args.id else list(theorems.registry_ids())
    for cid in ids:
        theorems.registry_doc(cid)  # fail early on unknown ids
    payload = sweep = insts = None
    if getattr(args, "infile", None):
        if args.sweep or args.seed is not None:
            raise ValueError("--in excludes --sweep and --seed")
        payload = _read_payload(args.infile)
        variant = _space_variant(payload, args.variant)
    else:
        sweep = _parse_sweep_flag(args.sweep) if args.sweep else {"n": 2}
        sweep.update(seed=args.seed or 0, variant=args.variant)
    lines = []
    code = 0
    for cid in ids:
        if payload is not None:
            insts = theorems.instances_for_payload(cid, payload, variant)
        try:
            reports = theorems.run_check(cid, instances=insts, sweep=sweep,
                                         fail_fast=args.fail_fast,
                                         budget_ms=args.budget_ms)
        except BudgetExceeded as exc:
            lines.append(_record_lines(getattr(exc, "reports", [])))
            print(f"error: {exc}", file=sys.stderr)
            code = 1
            break
        lines.append(_record_lines(reports))
        if any(r.verdict == "fail" for r in reports):
            code = 1
            if args.fail_fast:
                break
    _emit("\n".join(line for line in lines if line), args.out)
    return code


# ---------------------------------------------------------------------------
# DOT rendering


def _set_label(mask: int) -> str:
    return "{" + ",".join(str(b) for b in bits_of(mask)) + "}"


def _hasse_edges(strictly_less, count: int):
    covers = []
    for i in range(count):
        for j in range(count):
            if not strictly_less(i, j):
                continue
            if any(strictly_less(i, k) and strictly_less(k, j)
                   for k in range(count)):
                continue
            covers.append((i, j))
    return covers


def _lattice_cluster(lat: FinLattice, prefix: str, title: str) -> list[str]:
    lines = [f"  subgraph cluster_{prefix} {{", f'    label="{title}";']
    for i in range(lat.m):
        text = _set_label(lat.labels[i]) if lat.labels is not None else str(i)
        lines.append(f'    {prefix}{i} [label="{text}"];')

    def less(i, j):
        return i != j and lat.le(i, j)

    for i, j in _hasse_edges(less, lat.m):
        lines.append(f"    {prefix}{i} -> {prefix}{j};")
    lines.append("  }")
    return lines


def render_dot(payload) -> str:
    """Hasse-style DOT text for a space, lattice, or ad-frame."""
    if isinstance(payload, FinLattice):
        if payload.m > RENDER_NODE_CAP:
            raise TooLarge(f"lattice has {payload.m} elements; rendering caps at {RENDER_NODE_CAP}")
        lines = ["digraph lattice {", "  rankdir=BT;"] + [
            ln.replace("    ", "  ", 1)
            for ln in _lattice_cluster(payload, "e", "")[2:-1]]
        lines.append("}")
        return "\n".join(lines)

    if isinstance(payload, FinPreTopSpace):
        classes = point_classes(payload)
        if len(classes) > RENDER_NODE_CAP:
            raise TooLarge(f"space has {len(classes)} order classes; rendering caps at {RENDER_NODE_CAP}")
        reps = [bits_of(cls)[0] for cls in classes]
        opens = ("  ".join(_set_label(u) for u in payload.opens)
                 if len(payload.opens) <= 16 else f"{len(payload.opens)} open sets")
        lines = ["digraph pretop {", "  rankdir=BT;", f'  label="opens: {opens}";']
        for idx, cls in enumerate(classes):
            text = ",".join(str(b) for b in bits_of(cls))
            lines.append(f'  c{idx} [label="{text}"];')

        def less(a, b):
            return a != b and bool(payload.leq[reps[a]] >> reps[b] & 1)

        for a, b in _hasse_edges(less, len(classes)):
            lines.append(f"  c{a} -> c{b};")
        lines.append("}")
        return "\n".join(lines)

    if isinstance(payload, AdFrame):
        total = payload.omega.m + payload.ell.m
        if total > RENDER_NODE_CAP:
            raise TooLarge(f"frame has {total} lattice elements; rendering caps at {RENDER_NODE_CAP}")
        lines = ["digraph adframe {", "  rankdir=BT;", "  compound=true;"]
        lines += _lattice_cluster(payload.omega, "o", "omega")
        lines += _lattice_cluster(payload.ell, "l", "ell")
        styles = {"tot": ("red", "solid"), "con": ("blue", "dashed"),
                  "fof": ("darkgreen", "solid"), "cou": ("orange", "dashed")}
        for name, (color, style) in styles.items():
            for u, a in rel_pairs(payload.rel(name)):
                lines.append(f"  o{u} -> l{a} [color={color}, style={style}, "
                             f"arrowhead=none, constraint=false];")
        lines.append("}")
        return "\n".join(lines)

    raise ValueError("nothing to render for this payload")


def _cmd_render(args) -> int:
    payload = _read_payload(args.infile)
    _emit(render_dot(payload), args.out)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


_FLAGS = {
    "--in": dict(dest="infile", metavar="PATH", help="input JSON payload"),
    "--out": dict(metavar="PATH", help="output path (atomic write); default stdout"),
    "--variant": dict(choices=["up", "down", "both"],
                      help="which refinement relations a space is read under "
                           "(default: both; a sweep runs all three)"),
    "--id": dict(help="registered check identifier"),
    "--sweep": dict(metavar="n=K[,count=C]",
                    help="run over all spaces of size K (count samples "
                         "instead when given); default n=2"),
    "--seed": dict(type=int, help="seed for sampled sweeps (default 0)"),
    "--budget-ms": dict(type=float, help="abort after this many milliseconds"),
    "--fail-fast": dict(action="store_true",
                        help="stop at the first failing record"),
}
_RUN_FLAGS = ("--variant", "--sweep", "--seed", "--budget-ms", "--fail-fast")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adframe",
        description="Finite laboratory for the open/arbitrary-subset duality "
                    "of preordered spaces.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb, fn, helptext, flags=("--in",), required=("--in",)):
        p = sub.add_parser(verb, help=helptext)
        for flag in flags + ("--out",):
            p.add_argument(flag, required=flag in required, **_FLAGS[flag])
        p.set_defaults(func=fn)
        return p

    add("validate", _cmd_validate, "parse a payload and report its laws")
    add("ado", _cmd_ado, "build the four-relation frame of a space",
        ("--in", "--variant"))
    add("adpt", _cmd_adpt, "enumerate the spectrum of an ad-frame",
        ("--in", "--variant"))
    add("ads", _cmd_ads, "build the irreducible-pair space", ("--in", "--variant"))
    add("sobrify", _cmd_sobrify, "classical sobrification of the underlying topology")
    check_p = add("check", _cmd_run, "run one registered check",
                  ("--id", "--in") + _RUN_FLAGS, required=("--id",))
    check_p.description = "known ids: " + ", ".join(theorems.registry_ids())
    add("sweep", _cmd_run, "run every registered check over a sweep",
        ("--id",) + _RUN_FLAGS, required=())
    add("render", _cmd_render, "emit a DOT drawing of a payload")
    return parser


# built once per process; each parse_args call fills a fresh Namespace
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceeded, InternalCheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AdframeError, ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
