"""Command-line front end with deterministic JSON output and a memo cache."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction

from . import arith, census, cm, enumeration, forms, genus
from .census import SCHEMA, _gram_json
from .lattice import Lattice, LatticeError

CACHE_ENV = "K3LAT_CACHE_DIR"

_DOMAIN_ERRORS = (LatticeError, forms.FormError, enumeration.EnumerationError,
                  genus.GenusError, census.CensusError, cm.CMError,
                  arith.RangeError)


class InputError(ValueError):
    """Malformed command-line input (exit code 2)."""


@dataclass(frozen=True)
class CommandResult:
    status: str              # ok | error | input-error
    payload: dict
    timing_ms: float

    @property
    def exit_code(self) -> int:
        return {"ok": 0, "error": 1}.get(self.status, 2)


# -- input parsing -------------------------------------------------------------


def parse_gram(text: str) -> Lattice:
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                rows = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read Gram matrix file: {exc}") from exc
    else:
        try:
            rows = [[int(x) for x in row.split(",")] for row in text.split(";")]
        except ValueError as exc:
            raise InputError(f"bad Gram matrix {text!r}") from exc
    try:
        return Lattice(rows)
    except LatticeError as exc:
        raise InputError(str(exc)) from exc


def parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad vector {text!r}") from exc


def parse_form(text: str) -> forms.BinaryForm:
    parts = text.split(",")
    if len(parts) != 3:
        raise InputError(f"a form needs three coefficients, got {text!r}")
    try:
        return forms.BinaryForm(*(int(x) for x in parts))
    except ValueError as exc:
        raise InputError(f"bad form {text!r}") from exc


def parse_element(text: str, field: cm.CMField) -> cm.CMElement:
    try:
        return field.element([Fraction(x) for x in text.split(",")])
    except (ValueError, ZeroDivisionError, cm.CMError) as exc:
        raise InputError(f"bad field element {text!r}: {exc}") from exc


def parse_mu(text: str, field: cm.CMField) -> tuple[cm.CMElement, ...]:
    return tuple(parse_element(row, field) for row in text.split(";"))


def _field_from_args(args) -> cm.CMField:
    if getattr(args, "disc", None) is not None:
        return cm.CMField.imaginary_quadratic(args.disc)
    if getattr(args, "cyclotomic", None) is not None:
        return cm.CMField.cyclotomic(args.cyclotomic)
    raise InputError("specify the field with --disc M or --cyclotomic K")


# -- JSON helpers --------------------------------------------------------------


def _emb_json(emb: enumeration.EmbeddingMatrix) -> list[list[int]]:
    return [list(c) for c in emb.columns]


def _elem_json(x: cm.CMElement) -> list[str]:
    return [str(c) for c in x.coords]


# -- memo cache ----------------------------------------------------------------


def _cache_path(cache_dir: str, key: dict) -> str:
    blob = json.dumps(key, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode()).hexdigest()[:32]
    return os.path.join(cache_dir, f"k3lat-{digest}.json")


def _cache_get(cache_dir: str | None, key: dict):
    if not cache_dir:
        return None
    path = _cache_path(cache_dir, key)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("schema") == SCHEMA and doc.get("key") == key:
            return doc["result"]
    except FileNotFoundError:
        return None
    except (OSError, json.JSONDecodeError, KeyError, TypeError):
        print(f"warning: ignoring corrupt cache entry {path}", file=sys.stderr)
    return None


def _cache_put(cache_dir: str | None, key: dict, result: dict) -> None:
    if not cache_dir:
        return
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, key)
    doc = {"schema": SCHEMA, "key": key, "result": result}
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)


# -- command handlers ----------------------------------------------------------


def _cmd_qform_reduce(args, cache):
    f = parse_form(args.form)
    reduced, transform = forms.reduce_form(f)
    return {"form": list(f.as_tuple()), "reduced": list(reduced.as_tuple()),
            "transform": [list(row) for row in transform]}


def _cmd_qform_classgroup(args, cache):
    key = {"op": "classgroup", "D": args.discriminant}
    hit = _cache_get(cache, key)
    if hit is not None:
        return hit
    cl = forms.class_group(args.discriminant)
    result = {"discriminant": cl.discriminant, "h": cl.order,
              "forms": [list(f.as_tuple()) for f in cl.elements]}
    _cache_put(cache, key, result)
    return result


def _cmd_qform_compose(args, cache):
    f, g = parse_form(args.form), parse_form(args.other)
    return {"f": list(f.as_tuple()), "g": list(g.as_tuple()),
            "composed": list(forms.compose(f, g).as_tuple())}


def _cmd_qform_genus_check(args, cache):
    return {"p": args.prime, "principal_genus": forms.verify_principal_genus(args.prime)}


def _cmd_lattice_norm(args, cache):
    lat = parse_gram(args.gram)
    v = parse_vector(args.vector)
    return {"gram": _gram_json(lat), "vector": list(v), "norm": lat.norm(v)}


def _cmd_lattice_signature(args, cache):
    lat = parse_gram(args.gram)
    pos, neg = lat.signature()
    return {"gram": _gram_json(lat), "signature": [pos, neg]}


def _cmd_lattice_disc_group(args, cache):
    lat = parse_gram(args.gram)
    return {"gram": _gram_json(lat), "determinant": lat.determinant(),
            "discriminant_group": list(lat.discriminant_group())}


def _cmd_lattice_vectors(args, cache):
    lat = parse_gram(args.gram)
    key = {"op": "vectors", "gram": _gram_json(lat), "norm": args.norm}
    hit = _cache_get(cache, key)
    if hit is not None:
        return hit
    vecs = enumeration.vectors_of_norm(lat, args.norm)
    result = {"gram": _gram_json(lat), "norm": args.norm,
              "count": len(vecs), "vectors": [list(v) for v in vecs]}
    _cache_put(cache, key, result)
    return result


def _cmd_lattice_embeddings(args, cache):
    src = parse_gram(args.source)
    tgt = parse_gram(args.target)
    embs = enumeration.embeddings(src, tgt, primitive_only=args.primitive)
    return {"source": _gram_json(src), "target": _gram_json(tgt),
            "primitive_only": args.primitive, "count": len(embs),
            "embeddings": [_emb_json(e) for e in embs]}


def _cmd_lattice_isometric(args, cache):
    l1 = parse_gram(args.gram1)
    l2 = parse_gram(args.gram2)
    sig = l1.signature()
    if 0 in sig:
        w = enumeration.is_isometric_definite(l1, l2)
        return {"isometric": w is not None, "conclusive": True,
                "witness": None if w is None else _emb_json(w)}
    res = enumeration.indefinite_isometry_search(l1, l2, args.height_bound)
    return {"isometric": True if res.found else (False if res.conclusive else None),
            "conclusive": res.conclusive,
            "witness": None if res.witness is None else _emb_json(res.witness)}


def _cmd_lattice_complement(args, cache):
    lat = parse_gram(args.gram)
    comp, basis = lat.orthogonal_complement(parse_vector(args.vector))
    return {"gram": _gram_json(lat), "complement_gram": _gram_json(comp),
            "basis": [list(b) for b in basis]}


def _cmd_genus_symbol(args, cache):
    lat = parse_gram(args.gram)
    return genus.padic_symbol(lat, args.prime).to_json()


def _cmd_genus_same(args, cache):
    l1 = parse_gram(args.gram1)
    l2 = parse_gram(args.gram2)
    return {"same_genus": genus.same_genus(l1, l2)}


def _cmd_k3_unbounded(args, cache):
    cert = census.build_unbounded_family(args.prime, args.d0,
                                         height_bound=args.height_bound)
    doc = census.certificate_to_json(cert)
    if args.out:
        census.write_certificate(cert, args.out)
        doc["written_to"] = args.out
    return doc


def _cmd_k3_fm_count(args, cache):
    return {"d": args.degree, "tau": census.tau(args.degree),
            "count": census.fm_partner_count(args.degree)}


def _cmd_k3_twistor_count(args, cache):
    lat = parse_gram(args.gram)
    res = census.count_integral_twistor_classes(lat, args.degree)
    return {"gram": _gram_json(lat), "d": args.degree, "count": res.count,
            "representatives": [list(v) for v in res.representatives]}


def _cmd_k3_minus_two(args, cache):
    lat = parse_gram(args.gram)
    if args.bound < 0:
        raise InputError(f"--bound must be nonnegative, got {args.bound}")
    res = census.has_minus_two_class(lat, search_bound=args.bound)
    return {"gram": _gram_json(lat), "found": res.found,
            "certified": res.certified,
            "witness": None if res.witness is None else list(res.witness)}


def _cmd_cm_bound(args, cache):
    result = {"degree": args.degree,
              "bound": cm.twistor_fiber_bound(args.degree, args.roots)}
    if args.roots is None:
        result["max_order"] = cm.max_root_of_unity_order(args.degree)
    return result


def _cmd_cm_roots(args, cache):
    field = _field_from_args(args)
    if args.element:
        x = parse_element(args.element, field)
        return {"element": _elem_json(x), "order": cm.is_root_of_unity(x)}
    roots = field.roots_of_unity()
    return {"count": len(roots), "roots": [_elem_json(x) for x in roots]}


def _cmd_cm_fibers(args, cache):
    field = _field_from_args(args)
    lat = parse_gram(args.gram)
    pv = cm.PeriodVector(lat, parse_mu(args.mu, field))
    found = cm.enumerate_period_embeddings(pv, args.degree,
                                           overlattice_index=args.overlattice_index)
    return {
        "gram": _gram_json(lat), "d": args.degree,
        "overlattice_index": args.overlattice_index,
        "count": len(found),
        "embeddings": [{"matrix": _emb_json(pe.embedding),
                        "lambda": _elem_json(pe.lam),
                        "lambda_prime": _elem_json(pe.lam_prime),
                        "nu": _elem_json(pe.nu)} for pe in found],
    }


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine JSON output")
    common.add_argument("--cache-dir", default=os.environ.get(CACHE_ENV),
                        help="memo cache directory (default $K3LAT_CACHE_DIR)")

    parser = argparse.ArgumentParser(prog="k3lat")
    top = parser.add_subparsers(dest="group", required=True)

    qform = top.add_parser("qform", help="binary quadratic forms").add_subparsers(
        dest="cmd", required=True)
    p = qform.add_parser("reduce", parents=[common])
    p.add_argument("-f", "--form", required=True, help="a,b,c")
    p.set_defaults(handler=_cmd_qform_reduce)
    p = qform.add_parser("classgroup", parents=[common])
    p.add_argument("-D", "--discriminant", type=int, required=True)
    p.set_defaults(handler=_cmd_qform_classgroup)
    p = qform.add_parser("compose", parents=[common])
    p.add_argument("-f", "--form", required=True)
    p.add_argument("-g", "--other", required=True)
    p.set_defaults(handler=_cmd_qform_compose)
    p = qform.add_parser("genus-check", parents=[common])
    p.add_argument("-p", "--prime", type=int, required=True)
    p.set_defaults(handler=_cmd_qform_genus_check)

    lattice = top.add_parser("lattice", help="integral lattices").add_subparsers(
        dest="cmd", required=True)
    p = lattice.add_parser("norm", parents=[common])
    p.add_argument("--gram", required=True, help='"a,b;b,c" or @file.json')
    p.add_argument("--vector", required=True)
    p.set_defaults(handler=_cmd_lattice_norm)
    p = lattice.add_parser("signature", parents=[common])
    p.add_argument("--gram", required=True)
    p.set_defaults(handler=_cmd_lattice_signature)
    p = lattice.add_parser("disc-group", parents=[common])
    p.add_argument("--gram", required=True)
    p.set_defaults(handler=_cmd_lattice_disc_group)
    p = lattice.add_parser("vectors", parents=[common])
    p.add_argument("--gram", required=True)
    p.add_argument("-n", "--norm", type=int, required=True)
    p.set_defaults(handler=_cmd_lattice_vectors)
    p = lattice.add_parser("embeddings", parents=[common])
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--primitive", action="store_true")
    p.set_defaults(handler=_cmd_lattice_embeddings)
    p = lattice.add_parser("isometric", parents=[common])
    p.add_argument("--gram1", required=True)
    p.add_argument("--gram2", required=True)
    p.add_argument("--height-bound", type=int, default=10)
    p.set_defaults(handler=_cmd_lattice_isometric)
    p = lattice.add_parser("complement", parents=[common])
    p.add_argument("--gram", required=True)
    p.add_argument("--vector", required=True)
    p.set_defaults(handler=_cmd_lattice_complement)

    gen = top.add_parser("genus", help="p-adic genus symbols").add_subparsers(
        dest="cmd", required=True)
    p = gen.add_parser("symbol", parents=[common])
    p.add_argument("--gram", required=True)
    p.add_argument("-p", "--prime", type=int, required=True)
    p.set_defaults(handler=_cmd_genus_symbol)
    p = gen.add_parser("same", parents=[common])
    p.add_argument("--gram1", required=True)
    p.add_argument("--gram2", required=True)
    p.set_defaults(handler=_cmd_genus_same)

    k3 = top.add_parser("k3", help="polarization census").add_subparsers(
        dest="cmd", required=True)
    p = k3.add_parser("unbounded", parents=[common])
    p.add_argument("-p", "--prime", type=int, required=True)
    p.add_argument("--d0", type=int, default=1)
    p.add_argument("--height-bound", type=int, default=10,
                   help="largest level |z| the witness walk may reach")
    p.add_argument("--out", help="also write the certificate to this file")
    p.set_defaults(handler=_cmd_k3_unbounded)
    p = k3.add_parser("fm-count", parents=[common])
    p.add_argument("-d", "--degree", type=int, required=True)
    p.set_defaults(handler=_cmd_k3_fm_count)
    p = k3.add_parser("twistor-count", parents=[common])
    p.add_argument("--gram", required=True)
    p.add_argument("-d", "--degree", type=int, required=True)
    p.set_defaults(handler=_cmd_k3_twistor_count)
    p = k3.add_parser("minus-two", parents=[common])
    p.add_argument("--gram", required=True)
    p.add_argument("--bound", type=int, default=6)
    p.set_defaults(handler=_cmd_k3_minus_two)

    cmp_ = top.add_parser("cm", help="CM fields and twistor fibres").add_subparsers(
        dest="cmd", required=True)
    p = cmp_.add_parser("fibers", parents=[common])
    p.add_argument("--gram", required=True, help="transcendental lattice")
    p.add_argument("--mu", required=True, help='period coordinates "1,0;1/2,1/2"')
    p.add_argument("-d", "--degree", type=int, required=True)
    p.add_argument("--disc", type=int, help="field Q(sqrt(-M))")
    p.add_argument("--cyclotomic", type=int, help="field Q(zeta_K)")
    p.add_argument("--overlattice-index", type=int, default=1)
    p.set_defaults(handler=_cmd_cm_fibers)
    p = cmp_.add_parser("bound", parents=[common])
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--roots", type=int)
    p.set_defaults(handler=_cmd_cm_bound)
    p = cmp_.add_parser("roots", parents=[common])
    p.add_argument("--disc", type=int)
    p.add_argument("--cyclotomic", type=int)
    p.add_argument("--element", help="power-basis coordinates")
    p.set_defaults(handler=_cmd_cm_roots)

    return parser


def run(argv: list[str]) -> CommandResult:
    """Parse and execute one command; never raises on expected failures."""
    start = time.monotonic()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        payload = {"schema": SCHEMA, "status": "input-error",
                   "error": "malformed arguments"}
        ms = 1000 * (time.monotonic() - start)
        if exc.code in (0, None):  # --help
            return CommandResult("ok", {"schema": SCHEMA, "status": "ok"}, ms)
        return CommandResult("input-error", payload, ms)
    command = f"{args.group} {args.cmd}"
    try:
        result = args.handler(args, args.cache_dir)
        status = "ok"
        payload = {"schema": SCHEMA, "status": "ok", "command": command,
                   "result": result}
    except InputError as exc:
        status = "input-error"
        payload = {"schema": SCHEMA, "status": "input-error", "command": command,
                   "error": str(exc)}
    except _DOMAIN_ERRORS as exc:
        status = "error"
        payload = {"schema": SCHEMA, "status": "error", "command": command,
                   "error": str(exc)}
    except OSError as exc:
        status = "error"
        payload = {"schema": SCHEMA, "status": "error", "command": command,
                   "error": f"i/o failure: {exc}"}
    ms = 1000 * (time.monotonic() - start)
    return CommandResult(status, payload, ms)


def render_human(res: CommandResult) -> str:
    lines = []
    if res.status != "ok":
        lines.append(f"{res.status}: {res.payload.get('error', '')}")
    else:
        lines.append(f"command: {res.payload.get('command', '')}")
        for key, value in sorted(res.payload.get("result", {}).items()):
            lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
    lines.append(f"time: {res.timing_ms:.1f} ms")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    res = run(argv)
    if "--json" in argv:
        sys.stdout.write(json.dumps(res.payload, sort_keys=True,
                                    separators=(",", ":")) + "\n")
    else:
        sys.stdout.write(render_human(res) + "\n")
    sys.exit(res.exit_code)
