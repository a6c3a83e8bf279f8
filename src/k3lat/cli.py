"""Command-line front end with deterministic JSON output and a memo cache.

Each command is declared once: the `command` decorator on its handler
enters it in COMMANDS under "group cmd", with its argument specs.  A call
builds the parser of the one command its first two words name, so options
must be spelled in full; any other argv gets the listing parser, which
prints the command list.  Each handler imports only the modules its command
uses, and a memoized command imports its compute modules only on a cache
miss.  The floor of every call is arith alone, without dataclasses,
fractions, tempfile or hashlib: parse_gram imports lattice and linalg,
parse_element Fraction, a cache lookup hashlib and a cache write tempfile,
each where it needs them; k3 fm-count and cm bound add only formulas.  A
DomainError from a computation is exit code 1, an InputError exit code 2."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from . import SCHEMA
from .arith import DomainError, quoted

CACHE_ENV = "K3LAT_CACHE_DIR"


class InputError(ValueError):
    """Malformed command-line input (exit code 2)."""


class CommandResult:
    """The outcome of one call: its status, its JSON envelope and its time."""

    def __init__(self, status: str, payload: dict, timing_ms: float) -> None:
        self.status = status  # ok | error | input-error
        self.payload = payload
        self.timing_ms = timing_ms

    @property
    def exit_code(self) -> int:
        return {"ok": 0, "error": 1}.get(self.status, 2)


# -- input parsing -------------------------------------------------------------


def parse_gram(text: str):
    """The Lattice of a Gram matrix given inline or as @file.json."""
    from .lattice import Lattice, LatticeError
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                rows = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:  # RecursionError: over-nested JSON
            # an OSError's text repeats the path whole, so quote it once, cut
            why = (exc.strerror or type(exc).__name__) if isinstance(exc, OSError) else exc
            raise InputError(f"cannot read Gram matrix file {quoted(text[1:])}: {why}") from exc
    else:
        try:
            rows = [[int(x) for x in row.split(",")] for row in text.split(";")]
        except ValueError as exc:
            raise InputError(f"bad Gram matrix {quoted(text)}") from exc
    try:
        return Lattice(rows)
    except LatticeError as exc:
        raise InputError(str(exc)) from exc


def parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad vector {quoted(text)}") from exc


def parse_form(text: str):
    from . import forms
    parts = text.split(",")
    if len(parts) != 3:
        raise InputError(f"a form needs three coefficients, got {quoted(text)}")
    try:
        return forms.BinaryForm(*(int(x) for x in parts))
    except ValueError as exc:
        raise InputError(f"bad form {quoted(text)}") from exc


def parse_element(text: str, field):
    from fractions import Fraction
    try:
        coords = [Fraction(x) for x in text.split(",")]
    except (ValueError, ZeroDivisionError):  # their text repeats a token whole
        raise InputError(f"bad field element {quoted(text)}: "
                         "coordinates must be rationals a or a/b, b nonzero") from None
    try:
        return field.element(coords)
    except DomainError as exc:
        raise InputError(f"bad field element {quoted(text)}: {exc}") from exc


def parse_mu(text: str, field) -> tuple:
    return tuple(parse_element(row, field) for row in text.split(";"))


def _field_from_args(args):
    from . import cm
    if args.disc is not None and args.cyclotomic is not None:
        raise InputError("give the field by one of --disc M and --cyclotomic K, not both")
    if args.disc is not None:
        return cm.CMField.imaginary_quadratic(args.disc)
    if args.cyclotomic is not None:
        return cm.CMField.cyclotomic(args.cyclotomic)
    raise InputError("specify the field with --disc M or --cyclotomic K")


# -- JSON helpers --------------------------------------------------------------


def _emb_json(emb) -> list[list[int]]:
    return [list(c) for c in emb.columns]


def _elem_json(x) -> list[str]:
    return [str(c) for c in x.coords]


# -- memo cache ----------------------------------------------------------------


def _cache_path(cache_dir: str, key: dict) -> str:
    import hashlib
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
        if doc.get("schema") != SCHEMA or doc.get("key") != key:
            return None
        if isinstance(doc["result"], dict):
            return doc["result"]
    except FileNotFoundError:
        return None
    # ValueError: bad JSON or UTF-8; RecursionError: over-nested JSON
    except (OSError, ValueError, RecursionError, AttributeError, KeyError):
        pass
    print(f"warning: ignoring corrupt cache entry {path}", file=sys.stderr)
    return None


def _cache_put(cache_dir: str | None, key: dict, result: dict) -> None:
    if not cache_dir:
        return
    import tempfile
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, key)
    doc = {"schema": SCHEMA, "key": key, "result": result}
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True))  # dumps encodes in C, dump in Python
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _memo(args, key: dict, compute):
    """The result of compute(), read from the memo cache args.cache_dir if there."""
    result = _cache_get(args.cache_dir, key)
    if result is None:
        result = compute()
        _cache_put(args.cache_dir, key, result)
    return result


# -- command table -------------------------------------------------------------

COMMANDS: dict[str, tuple] = {}  # "group cmd" -> (handler, argument specs)


def arg(*flags, **options):
    """One argument of a command, as ArgumentParser.add_argument takes it."""
    return flags, options


def command(name: str, *specs):
    """Enter the decorated handler in COMMANDS under name, with its arguments."""
    def register(handler):
        COMMANDS[name] = handler, specs
        return handler
    return register


_GRAM = arg("--gram", required=True, help='"a,b;b,c" or @file.json')
_GRAMS = arg("--gram1", required=True), arg("--gram2", required=True)
_VECTOR = arg("--vector", required=True, help="a,b,...")
_FORM = arg("-f", "--form", required=True, help="a,b,c")
_PRIME = arg("-p", "--prime", type=int, required=True)
_DEGREE = arg("-d", "--degree", type=int, required=True)
_FIELD = (arg("--disc", type=int, help="field Q(sqrt(-M))"),
          arg("--cyclotomic", type=int, help="field Q(zeta_K)"))


# -- command handlers ----------------------------------------------------------


@command("qform reduce", _FORM)
def _cmd_qform_reduce(args):
    from . import forms
    f = parse_form(args.form)
    reduced, transform = forms.reduce_form(f)
    return {"form": list(f.as_tuple()), "reduced": list(reduced.as_tuple()),
            "transform": [list(row) for row in transform]}


@command("qform classgroup", arg("-D", "--discriminant", type=int, required=True))
def _cmd_qform_classgroup(args):
    def compute():
        from . import forms
        cl = forms.class_group(args.discriminant)
        return {"discriminant": cl.discriminant, "h": cl.order,
                "forms": [list(f.as_tuple()) for f in cl.elements]}
    return _memo(args, {"op": "classgroup", "D": args.discriminant}, compute)


@command("qform compose", _FORM, arg("-g", "--other", required=True, help="a,b,c"))
def _cmd_qform_compose(args):
    from . import forms
    f, g = parse_form(args.form), parse_form(args.other)
    return {"f": list(f.as_tuple()), "g": list(g.as_tuple()),
            "composed": list(forms.compose(f, g).as_tuple())}


@command("qform genus-check", _PRIME)
def _cmd_qform_genus_check(args):
    from . import forms
    return {"p": args.prime, "principal_genus": forms.verify_principal_genus(args.prime)}


@command("lattice norm", _GRAM, _VECTOR)
def _cmd_lattice_norm(args):
    from .lattice import _gram_json
    lat = parse_gram(args.gram)
    v = parse_vector(args.vector)
    return {"gram": _gram_json(lat), "vector": list(v), "norm": lat.norm(v)}


@command("lattice signature", _GRAM)
def _cmd_lattice_signature(args):
    from .lattice import _gram_json
    lat = parse_gram(args.gram)
    pos, neg = lat.signature()
    return {"gram": _gram_json(lat), "signature": [pos, neg]}


@command("lattice disc-group", _GRAM)
def _cmd_lattice_disc_group(args):
    from .lattice import _gram_json
    lat = parse_gram(args.gram)
    return {"gram": _gram_json(lat), "determinant": lat.determinant(),
            "discriminant_group": list(lat.discriminant_group())}


@command("lattice vectors", _GRAM, arg("-n", "--norm", type=int, required=True))
def _cmd_lattice_vectors(args):
    from .lattice import _gram_json
    lat = parse_gram(args.gram)

    def compute():
        from . import enumeration
        vecs = enumeration.vectors_of_norm(lat, args.norm)
        return {"gram": _gram_json(lat), "norm": args.norm,
                "count": len(vecs), "vectors": [list(v) for v in vecs]}
    return _memo(args, {"op": "vectors", "gram": _gram_json(lat), "norm": args.norm},
                 compute)


@command("lattice embeddings", arg("--source", required=True),
         arg("--target", required=True), arg("--primitive", action="store_true"))
def _cmd_lattice_embeddings(args):
    from . import enumeration
    from .lattice import _gram_json
    src = parse_gram(args.source)
    tgt = parse_gram(args.target)
    embs = enumeration.embeddings(src, tgt, primitive_only=args.primitive)
    return {"source": _gram_json(src), "target": _gram_json(tgt),
            "primitive_only": args.primitive, "count": len(embs),
            "embeddings": [_emb_json(e) for e in embs]}


@command("lattice isometric", *_GRAMS, arg("--height-bound", type=int, default=10))
def _cmd_lattice_isometric(args):
    from . import enumeration
    res = enumeration.indefinite_isometry_search(
        parse_gram(args.gram1), parse_gram(args.gram2), args.height_bound)
    return {"isometric": True if res.found else (False if res.conclusive else None),
            "conclusive": res.conclusive,
            "witness": None if res.witness is None else _emb_json(res.witness)}


@command("lattice complement", _GRAM, _VECTOR)
def _cmd_lattice_complement(args):
    from .lattice import _gram_json
    lat = parse_gram(args.gram)
    comp, basis = lat.orthogonal_complement(parse_vector(args.vector))
    return {"gram": _gram_json(lat), "complement_gram": _gram_json(comp),
            "basis": [list(b) for b in basis]}


@command("genus symbol", _GRAM, _PRIME)
def _cmd_genus_symbol(args):
    from . import genus
    lat = parse_gram(args.gram)
    return genus.padic_symbol(lat, args.prime).to_json()


@command("genus same", *_GRAMS)
def _cmd_genus_same(args):
    from . import genus
    l1 = parse_gram(args.gram1)
    l2 = parse_gram(args.gram2)
    return {"same_genus": genus.same_genus(l1, l2)}


@command("k3 unbounded", _PRIME, arg("--d0", type=int, default=1),
         arg("--height-bound", type=int, default=10,
             help="largest level |z| the witness walk may reach"),
         arg("--out", help="also write the certificate to this file"))
def _cmd_k3_unbounded(args):
    from . import census
    cert = census.build_unbounded_family(args.prime, args.d0,
                                         height_bound=args.height_bound)
    doc = census.certificate_to_json(cert)
    if args.out:
        census.write_certificate(cert, args.out)
        doc["written_to"] = args.out
    return doc


@command("k3 fm-count", _DEGREE)
def _cmd_k3_fm_count(args):
    from . import formulas
    return {"d": args.degree, "tau": formulas.tau(args.degree),
            "count": formulas.fm_partner_count(args.degree)}


@command("k3 twistor-count", _GRAM, _DEGREE)
def _cmd_k3_twistor_count(args):
    from . import census
    from .lattice import _gram_json
    lat = parse_gram(args.gram)
    res = census.count_integral_twistor_classes(lat, args.degree)
    return {"gram": _gram_json(lat), "d": args.degree, "count": res.count,
            "representatives": [list(v) for v in res.representatives]}


@command("k3 minus-two", _GRAM, arg("--bound", type=int, default=6))
def _cmd_k3_minus_two(args):
    from . import census
    from .lattice import _gram_json
    lat = parse_gram(args.gram)
    if args.bound < 0:
        raise InputError(f"--bound must be nonnegative, got {args.bound}")
    res = census.has_minus_two_class(lat, search_bound=args.bound)
    return {"gram": _gram_json(lat), "found": res.found,
            "certified": res.certified,
            "witness": None if res.witness is None else list(res.witness)}


@command("cm fibers", _GRAM,
         arg("--mu", required=True, help='period coordinates "1,0;1/2,1/2"'),
         _DEGREE, *_FIELD, arg("--overlattice-index", type=int, default=1))
def _cmd_cm_fibers(args):
    from . import cm
    from .lattice import _gram_json
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


@command("cm bound", arg("--degree", type=int, required=True), arg("--roots", type=int))
def _cmd_cm_bound(args):
    from . import formulas
    result = {"degree": args.degree,
              "bound": formulas.twistor_fiber_bound(args.degree, args.roots)}
    if args.roots is None:
        result["max_order"] = formulas.max_root_of_unity_order(args.degree)
    return result


@command("cm roots", *_FIELD, arg("--element", help="power-basis coordinates"))
def _cmd_cm_roots(args):
    from . import cm
    field = _field_from_args(args)
    if args.element:
        x = parse_element(args.element, field)
        return {"element": _elem_json(x), "order": cm.is_root_of_unity(x)}
    roots = field.roots_of_unity()
    return {"count": len(roots), "roots": [_elem_json(x) for x in roots]}


# -- parser and run ------------------------------------------------------------


def build_parser(name: str = "") -> argparse.ArgumentParser:
    """The parser of the command name ("group cmd"); for any other name the
    listing parser, which takes the whole argv and lists every command."""
    if name not in COMMANDS:
        groups: dict[str, list[str]] = {}
        for key in COMMANDS:
            group, cmd = key.split()
            groups.setdefault(group, []).append(cmd)
        listing = "\n".join(f"  k3lat {g:7} {'|'.join(cmds)}" for g, cmds in groups.items())
        parser = argparse.ArgumentParser(
            prog="k3lat", usage="k3lat GROUP COMMAND [options]", allow_abbrev=False,
            formatter_class=argparse.RawDescriptionHelpFormatter,
            epilog=f"commands:\n{listing}\n\n"
                   "`k3lat GROUP COMMAND --help` lists the options of a command")
        parser.add_argument("group", metavar="GROUP", choices=groups)
        parser.add_argument("command", metavar="COMMAND",
                            choices=sorted({c for cmds in groups.values() for c in cmds}))
        return parser
    parser = argparse.ArgumentParser(prog=f"k3lat {name}", allow_abbrev=False)
    for flags, options in COMMANDS[name][1]:
        parser.add_argument(*flags, **options)
    parser.add_argument("--json", action="store_true", help="machine JSON output")
    parser.add_argument("--cache-dir", default=os.environ.get(CACHE_ENV),
                        help="memo cache directory (default $K3LAT_CACHE_DIR)")
    return parser


def _result(start: float, status: str, **fields) -> CommandResult:
    payload = {"schema": SCHEMA, "status": status, **fields}
    return CommandResult(status, payload, 1000 * (time.monotonic() - start))


def run(argv: list[str]) -> CommandResult:
    """Parse and execute one command; never raises on expected failures."""
    start = time.monotonic()
    name = " ".join(argv[:2])
    parser = build_parser(name)
    try:
        with contextlib.redirect_stdout(sys.stderr):  # help text would break the JSON
            if name not in COMMANDS:
                parser.parse_args(argv)
                parser.error(f"no command {name!r}")
            args = parser.parse_args(argv[2:])
    except SystemExit as exc:
        if exc.code in (0, None):  # --help
            return _result(start, "ok")
        return _result(start, "input-error", error="malformed arguments")
    try:
        outcome = {"status": "ok", "result": COMMANDS[name][0](args)}
    except InputError as exc:
        outcome = {"status": "input-error", "error": str(exc)}
    except DomainError as exc:
        outcome = {"status": "error", "error": str(exc)}
    except OSError as exc:
        outcome = {"status": "error", "error": f"i/o failure: {exc}"}
    return _result(start, command=name, **outcome)


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
    elif res.status != "ok" or "command" in res.payload:  # help went to stderr
        sys.stdout.write(render_human(res) + "\n")
    sys.exit(res.exit_code)
