"""Command-line front end.

usage: serrekit build <input> [-o <path>] [--format json|text]
                [--lift-order fg|gf] [--max-degree <n>]
       serrekit verify <input> [-o <path>] [--format json|text]
       serrekit cohomology --ambient P<n> --twist <m> --degree <q>
       serrekit compare <a> <b> [-o <path>] [--format json|text]
                [--max-degree <n>]

`build` runs the whole pipeline on an input document and writes a bundle
document; `verify` re-runs every check on a previously written bundle
document; `cohomology` prints an exact line-bundle cohomology dimension;
`compare` decides whether two bundle documents are isomorphic via chart
automorphisms.  Input `-` is stdin, and `-o` (`--output`) defaults to stdout.
Flags are written in full, as `--flag value` or `--flag=value`.  `--help`
(`-h`) prints this text.

Output is deterministic: JSON with sorted keys (default) or a plain-text
rendering (`--format text`).  Exit codes: 0 success, 1 precondition/schema or
verification failure or a malformed command line (`error[parse]`), 2 exact
obstruction, 3 inconclusive search.
"""

from __future__ import annotations

import gc
import json
import sys
from itertools import combinations
from types import SimpleNamespace

from .algebra import LocElem, MatrixL, SUnit, format_poly, is_homogeneous
from .cech import MAX_DEGREE, CechCochain, cohomology_dim
from .cover import (AmbientSpec, Cover, LineBundleData, chart_key,
                    chart_table, need, poly_field, read_ambient)
from .errors import (FormMismatch, Inconclusive, Obstructed, SerreError,
                     ShapeViolation)
from .serre import (BundleResult, FrameData, TransitionSet, build_bundle,
                    compare_bundles)
from .verify import run_all

_SCHEMA = "serre-bundle/1"


# -- document encoding --------------------------------------------------------


def _elem_doc(e):
    return {"num": e.ctx.format(e.num),
            "den": {k: e.den[k] for k in sorted(e.den)}}


def _vec_doc(vec):
    return [_elem_doc(e) for e in vec]


def _mat_doc(A):
    rows, cols = A.shape
    return [[_elem_doc(A[i, j]) for j in range(cols)] for i in range(rows)]


def _cochain_doc(c):
    return [{"key": list(key), "values": _vec_doc(c.data[key])}
            for key in sorted(c.data)]


def bundle_doc(bundle, report):
    """Serialize a BundleResult and its report into a plain-JSON document;
    `meta` gains the pivots, tiers, branches and h^1, h^2 derived here."""
    cover, raw = bundle.cover, bundle.raw
    names = cover.hom_names()
    charts = {}
    for i, fr in sorted(bundle.frames.items()):
        charts[str(i)] = {
            "meets": fr.meets,
            "t": fr.t,
            "tier": fr.tier,
            "sign": fr.sign,
            "f": _elem_doc(fr.f),
            "g": _elem_doc(fr.g),
            "s": _vec_doc(fr.s),
            "M": _mat_doc(fr.M),
        }
    overlaps = {}
    for (i, j) in raw.pairs:
        overlaps[f"{i},{j}"] = {
            "empty": raw.empty[(i, j)],
            "branch": raw.branch[(i, j)],
            "raw": _mat_doc(raw.Z[(i, j)]),
            "corrected": _mat_doc(bundle.transitions.Z[(i, j)]),
        }
    h1, h2 = ((raw.rank - 1) * cohomology_dim(cover.ambient, -raw.lb.twist,
                                              degree) for degree in (1, 2))
    meta = {**bundle.meta, "h1_dim": h1, "h2_dim": h2, "unique": h1 == 0,
            "pivots": {str(i): fr.t for i, fr in bundle.frames.items()},
            "tiers": {str(i): fr.tier for i, fr in bundle.frames.items()},
            "branches": {f"{i},{j}": b for (i, j), b in raw.branch.items()}}
    return {
        "schema": _SCHEMA,
        "ambient": {"kind": "projective", "dim": cover.ambient.dim},
        "line_bundle": {"twist": raw.lb.twist},
        "rank": raw.rank,
        "mode": bundle.mode,
        "units": {str(u.chart): {"form": format_poly(u.form, names),
                                 "degree": u.degree}
                  for u in cover.sunits},
        "charts": charts,
        "overlaps": overlaps,
        "obstruction": _cochain_doc(bundle.obstruction),
        "correction": _cochain_doc(bundle.xi),
        "meta": meta,
        "verification": report.to_doc(),
    }


# -- document decoding ---------------------------------------------------------


def _elem_load(ctx, doc, where):
    num = poly_field(need(doc, "num", str, where), ctx.var_names(), where)
    den = need(doc, "den", dict, where)
    # every unknown key named at once, as a parse error
    unknown = set(den) - set(ctx.unit_keys())
    if unknown:
        raise ShapeViolation(f"{where}: unknown units {sorted(unknown)}")
    try:
        return LocElem(ctx, num, {k: need(den, k, int, where) for k in den})
    except ValueError as exc:
        raise ShapeViolation(f"{where}: {exc}") from exc


def _vec_load(ctx, doc, width, where):
    if len(doc) != width:
        raise ShapeViolation(f"{where}: expected {width} entries")
    return tuple(_elem_load(ctx, d, where) for d in doc)


def _mat_load(ctx, doc, shape, where):
    rows, cols = shape
    if len(doc) != rows:
        raise ShapeViolation(f"{where}: expected {rows} matrix rows")
    data = []
    for row in doc:
        if not isinstance(row, list) or len(row) != cols:
            raise ShapeViolation(f"{where}: expected {cols} matrix columns")
        data.append([_elem_load(ctx, d, where) for d in row])
    return MatrixL(ctx, data)


def _cochain_load(cover, lb, degree, width, doc, where):
    data = {}
    for entry in doc:
        key = tuple(chart_key(i, cover.charts, where)
                    for i in need(entry, "key", list, where))
        if key in data:
            raise ShapeViolation(f"{where}: component {key} appears twice")
        ctx = cover.ctx(key)
        data[key] = _vec_load(ctx, need(entry, "values", list, where),
                              width, f"{where} {key}")
    return CechCochain(cover, lb, degree, width, data)


def _prints_alike(a, b):
    """Do two JSON values print alike?  `==` alone takes 1, 1.0 and true
    for one another; `json.dumps` tells them apart, and key order too."""
    return a == b and json.dumps(a) == json.dumps(b)


def load_bundle(doc):
    """Rebuild a BundleResult from its serialized document.

    Only schema shape is enforced here; the mathematical identities are the
    verify suite's job, so a hand-edited entry loads fine and then fails its
    named check.  Chart facts go onto the frames, overlap facts into the
    transition sets, and `meta` stays as read, its chart keys checked.  An
    overlap's raw matrix is parsed; where its corrected matrix prints alike
    (`_prints_alike`), it would parse to the same numerators and `den`
    dicts, so the raw object is stored for both unparsed, and any other
    corrected matrix is parsed.  The corrected set is built on the raw set,
    so `verify` computes each shared value once (`TransitionSet`).
    """
    if need(doc, "schema", str, "") != _SCHEMA:
        raise ShapeViolation("document: unknown schema tag")
    ambient = read_ambient(doc)
    if ambient.dim < 2:
        raise ShapeViolation("document: ambient dimension must be >= 2")
    cover = Cover(ambient)
    units = []
    unit_docs = chart_table(need(doc, "units", dict, "").items(), cover.charts,
                            "units")
    for chart, u in sorted(unit_docs.items()):
        form = poly_field(need(u, "form", str, "units"), cover.hom_names(),
                          "units")
        degree = need(u, "degree", int, "units")
        # what `cover.section_unit` builds: a nonzero homogeneous form of
        # the stated degree
        if (form.is_zero() or form.total_degree() != degree
                or not is_homogeneous(form)):
            raise ShapeViolation(
                f"units: chart {chart} needs a nonzero homogeneous form of "
                f"degree {degree}")
        units.append(SUnit(chart, form, degree))
    cover.fix_units(units)
    twist = need(need(doc, "line_bundle", dict, ""), "twist", int,
                 "line_bundle")
    lb = LineBundleData(ambient, twist)
    r = need(doc, "rank", int, "")
    if r < 2:
        raise ShapeViolation("document: rank must be >= 2")

    charts_doc = chart_table(need(doc, "charts", dict, "").items(),
                             cover.charts, "charts")
    if len(charts_doc) != len(cover.charts):
        raise ShapeViolation("document: chart set does not match the cover")
    frames = {}
    for i, ch in charts_doc.items():
        ctx = cover.chart_ctx(i)
        where = f"chart {i}"
        t = need(ch, "t", int, where)
        if not 1 <= t <= r - 1:
            raise ShapeViolation(f"{where}: pivot position out of range")
        sign = need(ch, "sign", int, where)
        if sign != (-1 if t % 2 else 1):
            raise ShapeViolation(f"{where}: sign does not match pivot parity")
        f = _elem_load(ctx, need(ch, "f", dict, where), where)
        g = _elem_load(ctx, need(ch, "g", dict, where), where)
        s = _vec_load(ctx, need(ch, "s", list, where), r - 1, where)
        M = _mat_load(ctx, need(ch, "M", list, where), (r, r - 1), where)
        frames[i] = FrameData(i, t, sign, f, g, s,
                              need(ch, "meets", bool, where),
                              need(ch, "tier", int, where), M=M)

    overlaps_doc = need(doc, "overlaps", dict, "")
    sorted_pairs = tuple(combinations(cover.charts, 2))
    if sorted(overlaps_doc) != sorted(f"{i},{j}" for i, j in sorted_pairs):
        raise ShapeViolation("document: overlap set does not match the cover")
    Z_raw, Z_cor, branch, empty = {}, {}, {}, {}
    for (i, j) in sorted_pairs:
        ov = overlaps_doc[f"{i},{j}"]
        ctx = cover.ctx((i, j))
        where = f"overlap ({i}, {j})"
        br = need(ov, "branch", str, where)
        if br not in ("unit", "split"):
            raise ShapeViolation(f"{where}: unknown branch {br!r}")
        branch[(i, j)] = br
        empty[(i, j)] = need(ov, "empty", bool, where)
        raw_doc = need(ov, "raw", list, where)
        Z_raw[(i, j)] = _mat_load(ctx, raw_doc, (r, r), where)
        cor_doc = need(ov, "corrected", list, where)
        Z_cor[(i, j)] = (Z_raw[(i, j)] if _prints_alike(raw_doc, cor_doc)
                         else _mat_load(ctx, cor_doc, (r, r), where))

    mode = need(doc, "mode", str, "")
    raw = TransitionSet(r, "raw", cover, lb, Z_raw, branch, empty)
    cor = TransitionSet(r, "corrected", cover, lb, Z_cor, branch, empty,
                        base=raw)
    obs = _cochain_load(cover, lb, 2, r - 1,
                        need(doc, "obstruction", list, ""),
                        "obstruction")
    xi = _cochain_load(cover, lb, 1, r - 1,
                       need(doc, "correction", list, ""),
                       "correction")
    meta = need(doc, "meta", dict, "")
    for field in ("pivots", "tiers"):
        if isinstance(meta.get(field), dict):
            chart_table(meta[field].items(), cover.charts, f"meta {field}")
    return BundleResult(cover=cover, mode=mode, frames=frames, transitions=cor,
                        raw=raw, obstruction=obs, xi=xi, meta=meta)


def iso_doc(iso):
    return {
        "schema": "serre-isomorphism/1",
        "y": {str(i): _vec_doc(iso.y[i]) for i in sorted(iso.y)},
        "N": {str(i): _mat_doc(iso.N[i]) for i in sorted(iso.N)},
        "xi": _cochain_doc(iso.xi),
    }


# -- text rendering ------------------------------------------------------------


def _fmt_elem(ed):
    den = ed["den"]
    if not den:
        return ed["num"]
    ds = " ".join(k if den[k] == 1 else f"{k}^{den[k]}" for k in sorted(den))
    return f"({ed['num']}) / {ds}"


def _fmt_matrix(md, indent):
    return [indent + "[" + ", ".join(_fmt_elem(e) for e in row) + "]"
            for row in md]


def _text_bundle(doc):
    amb = doc["ambient"]
    lines = [f"ambient: {amb['kind']} dim {amb['dim']},"
             f" twist {doc['line_bundle']['twist']}, rank {doc['rank']}"]
    for key in sorted(doc["charts"], key=int):
        ch = doc["charts"][key]
        lines.append(f"chart {key}: meets={ch['meets']} t={ch['t']}"
                     f" sign={ch['sign']:+d}")
        lines.append(f"  f = {_fmt_elem(ch['f'])}")
        lines.append(f"  g = {_fmt_elem(ch['g'])}")
        lines.append("  s = (" + ", ".join(_fmt_elem(e) for e in ch["s"]) + ")")
    for key in sorted(doc["overlaps"], key=lambda s: tuple(map(int, s.split(",")))):
        ov = doc["overlaps"][key]
        lines.append(f"overlap ({key}): branch={ov['branch']}"
                     f" empty={ov['empty']}")
        lines.append("  raw:")
        lines += _fmt_matrix(ov["raw"], "    ")
        lines.append("  corrected:")
        lines += _fmt_matrix(ov["corrected"], "    ")
    lines.append("obstruction components: "
                 + (str(len(doc["obstruction"])) if doc["obstruction"]
                    else "none"))
    for entry in doc["obstruction"]:
        lines.append("  (" + ", ".join(map(str, entry["key"])) + "): ("
                     + ", ".join(_fmt_elem(e) for e in entry["values"]) + ")")
    lines += _text_report(doc["verification"])
    return lines


def _text_report(entries):
    lines = []
    passed = sum(1 for e in entries if e["passed"])
    lines.append(f"verification: {passed}/{len(entries)} checks passed")
    for e in entries:
        mark = "PASS" if e["passed"] else "FAIL"
        lines.append(f"  {mark} {e['check']} [{e['scope']}]")
    return lines


def _text_iso(doc):
    lines = ["isomorphism found"]
    for key in sorted(doc["N"], key=int):
        lines.append(f"N_{key}:")
        lines += _fmt_matrix(doc["N"][key], "  ")
    return lines


def _emit(payload, args, text):
    """Write payload as JSON, or with `--format text` as the lines that
    `text(payload)` renders; the lines are built only when printed."""
    if args.format == "text":
        out = "\n".join(text(payload)) + "\n"
    else:
        out = json.dumps(payload, sort_keys=True, indent=2,
                         ensure_ascii=False) + "\n"
    if args.output and args.output != "-":
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as exc:
            raise ShapeViolation(f"cannot write output: {exc}") from exc
    else:
        sys.stdout.write(out)


def _unique_keys(pairs):
    """`object_pairs_hook` for `json.load`: plain `json.load` keeps the last
    of two equal keys, which would hide the first from every reader."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ShapeViolation(f"document: key {key!r} appears twice in "
                                 "one object")
        out[key] = value
    return out


def _int_literal(text):
    """`parse_int` hook for `json.load`: a literal past the interpreter's
    digit limit gets `_too_long`'s fixed line."""
    try:
        return int(text)
    except ValueError as exc:
        raise _too_long(
            "cannot read input document: an integer literal") from exc


def _read_json(path):
    hooks = {"object_pairs_hook": _unique_keys, "parse_int": _int_literal}
    try:
        if path == "-":
            return json.load(sys.stdin, **hooks)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, **hooks)
    # ValueError covers malformed JSON and bad UTF-8; RecursionError covers
    # deep nesting
    except (OSError, ValueError, RecursionError) as exc:
        raise ShapeViolation(f"cannot read input document: {exc}") from exc


# -- commands ------------------------------------------------------------------


def _check_report(report):
    """Raise for the first failed entry of a verification report."""
    if not report.ok:
        first = report.failures()[0]
        raise SerreError(f"check failed: {first.check} [{first.scope}]",
                         stage="verify")


def cmd_build(args):
    try:
        bundle = build_bundle(_read_json(args.input),
                              lift_order=args.lift_order,
                              max_degree=args.max_degree)
    except Obstructed as exc:
        _emit({"error": {"type": "Obstructed", "stage": "correct",
                         "message": str(exc), "component": exc.component,
                         "multidegree": list(exc.multidegree),
                         "witness": exc.witness}},
              args, lambda _: [f"obstructed: {exc}",
                               f"  component: {exc.component}",
                               f"  multidegree: {exc.multidegree}"])
        raise
    except Inconclusive as exc:
        _emit({"error": {"type": "Inconclusive", "stage": "correct",
                         "message": str(exc)}},
              args, lambda _: [f"inconclusive: {exc}"])
        raise
    report = run_all(bundle)
    _emit(bundle_doc(bundle, report), args, _text_bundle)
    _check_report(report)
    return 0


def cmd_verify(args):
    report = run_all(load_bundle(_read_json(args.input)))
    _emit(report.to_doc(), args, _text_report)
    _check_report(report)
    return 0


def _too_long(what):
    """The parse error for a decimal integer past the interpreter's digit
    limit, the one ValueError that `int` and `str` raise on the checked
    digit strings and integers here; the interpreter's own text differs
    between versions."""
    return ShapeViolation(
        f"{what} has more than {sys.get_int_max_str_digits()} digits")


def cmd_cohomology(args):
    spec = args.ambient
    if spec[:1] != "P" or not (spec[1:].isascii() and spec[1:].isdigit()):
        raise ShapeViolation("ambient must be P<n> (projective space)")
    try:
        dim = int(spec[1:])
    except ValueError as exc:
        raise _too_long("cohomology: --ambient") from exc
    answer = cohomology_dim(AmbientSpec(dim), args.twist, args.degree)
    try:
        text = str(answer)
    except ValueError as exc:
        raise _too_long("cohomology: the answer") from exc
    sys.stdout.write(text + "\n")
    return 0


def cmd_compare(args):
    a = load_bundle(_read_json(args.a))
    b = load_bundle(_read_json(args.b))
    iso = compare_bundles(a, b, max_degree=args.max_degree)
    _emit(iso_doc(iso), args, _text_iso)
    return 0


# command -> (function, positional names, options, exit code by error class,
# else 1).  Options map a long flag to (default, kind), kind being `str`, `int`
# (ASCII digits, optional minus) or its values; a default `...` is required.
_OUTPUT = {"--output": (None, str), "--format": ("json", ("json", "text"))}
_COMMANDS = {
    "build": (cmd_build, ("input",),
              {**_OUTPUT, "--lift-order": (None, ("fg", "gf")),
               "--max-degree": (None, int)},
              {Obstructed: 2, Inconclusive: 3}),
    "verify": (cmd_verify, ("input",), _OUTPUT, {}),
    "cohomology": (cmd_cohomology, (), {"--ambient": (..., str),
                   "--twist": (..., int), "--degree": (..., int)}, {}),
    "compare": (cmd_compare, ("a", "b"),
                {**_OUTPUT, "--max-degree": (MAX_DEGREE, int)},
                {FormMismatch: 2}),
}


def _parse(argv):
    """The function, arguments and exit codes of one command line, or a
    ShapeViolation.  A flag's value follows `=` or is the next token."""
    if not argv or argv[0] not in _COMMANDS:
        raise ShapeViolation("expected a command: " + ", ".join(_COMMANDS))
    command, *rest = argv
    func, names, options, codes = _COMMANDS[command]
    values = {flag: default for flag, (default, _) in options.items()}
    positional, tokens = [], iter(rest)
    for token in tokens:
        if not token.startswith("-") or token == "-":
            positional.append(token)
            continue
        name, eq, value = token.partition("=")
        flag = "--output" if name == "-o" else name
        if flag not in options:
            raise ShapeViolation(f"{command}: unknown option {name!r}")
        if not eq and (value := next(tokens, None)) is None:
            raise ShapeViolation(f"{command}: {name} needs a value")
        kind = options[flag][1]
        if (value not in kind if isinstance(kind, tuple) else kind is int and
                not (value.isascii() and value.removeprefix("-").isdigit())):
            raise ShapeViolation(f"{command}: {name} cannot be {value!r}")
        try:
            values[flag] = int(value) if kind is int else value
        except ValueError as exc:
            raise _too_long(f"{command}: {name}") from exc
    if len(positional) != len(names):
        raise ShapeViolation(f"{command}: expected {len(names)} argument(s) "
                             f"({' '.join(names)}), got {len(positional)}")
    if ... in values.values():
        raise ShapeViolation(f"{command}: missing " + ", ".join(
            flag for flag, value in values.items() if value is ...))
    return func, SimpleNamespace(**dict(zip(names, positional)), **{
        flag[2:].replace("-", "_"): v for flag, v in values.items()}), codes


def main(argv=None):
    """Run one command with the cyclic collector off (a command leaves few
    cycles); the one place a `SerreError` becomes its error line and code."""
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(__doc__)
        return 0
    codes, enabled = {}, gc.isenabled()
    gc.disable()
    try:
        func, args, codes = _parse(argv)
        return func(args)
    except SerreError as exc:
        print(f"error[{exc.stage}]: {exc}", file=sys.stderr)
        return codes.get(type(exc), 1)
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
