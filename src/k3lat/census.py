"""Degree-d polarization census: unbounded orbit families, twistor class
counting, (-2)-class detection and Fourier-Mukai partner counts.

The centrepiece builds, for a prime p = 3 mod 4 and odd cube-free p*d0, a
certificate that one rank-3 lattice carries h(-p) distinguished vectors of
square 4*d0 whose orthogonal complements realize the h pairwise distinct
oriented form classes of discriminant -p.  The chain: the h form classes lie
in one genus (squares fill the class group), their rank-3 extensions by a
(-d0)-vector are isometric (indefinite ternary, odd cube-free determinant),
and the complements of the distinguished vectors recover the original binary
forms.  Forgetting orientations merges each mirror pair of classes, and the
merged records are what separate full orthogonal-group orbits; certificates
carry both counts.
"""

from __future__ import annotations

import json

from . import HEIGHT_BOUND, SCHEMA, arith
from .enumeration import (EmbeddingMatrix, OrbitInvariant, level_walk,
                          vectors_of_norm, _bounded_norm_vectors, _orbit_record)
from .forms import BinaryForm, class_group, form_to_lattice
from .formulas import CensusError, fm_partner_count, tau  # the last two re-exported
from .genus import same_genus
from .lattice import Lattice, Vector, _gram_json, _integers


class TwistorCount(arith.Record):
    count: int
    representatives: tuple[Vector, ...]


def count_integral_twistor_classes(pos: Lattice, d: int) -> TwistorCount:
    """Number of square-d classes in a definite rank <= 3 lattice, up to sign.

    Antipodal vectors give the same twistor parameter (a class determines the
    fibre only up to complex conjugation), so pairs are counted once.
    """
    (d,) = _integers((d,))
    if d <= 0:
        raise CensusError("d must be positive")
    if pos.rank > 3:
        raise CensusError("rank must be at most 3")
    if not pos.is_positive_definite():
        raise CensusError("lattice must be positive definite")
    vecs = vectors_of_norm(pos, d)
    reps = tuple(v for v in vecs if v > tuple(-x for x in v))
    assert 2 * len(reps) == len(vecs)
    return TwistorCount(len(reps), reps)


class MinusTwoResult(arith.Record):
    """Outcome of a (-2)-class check.

    certified is True when the answer is proven (by the mod-4 congruence,
    by a positive semidefinite form or by an explicit witness); a
    bound-limited miss leaves found False and certified False.
    """

    found: bool
    certified: bool
    witness: Vector | None = None


def has_minus_two_class(lat: Lattice, search_bound: int = 6) -> MinusTwoResult:
    """Detect vectors of square -2, certifying absence when norms are 0 mod 4
    or never negative.

    Any twist by a multiple of 4 has every diagonal entry divisible by 4 and
    every off-diagonal entry even, which forces all norms into 4Z, so -2 is
    impossible.  A form without negative LDL^T pivots is positive
    semidefinite, so no vector has negative square.  The search bound must
    be a nonnegative integer.
    """
    (search_bound,) = arith.integers((search_bound,), CensusError)
    if search_bound < 0:
        raise CensusError("search bound must be nonnegative")
    g = lat.gram
    n = lat.rank
    if (all(g[i][i] % 4 == 0 for i in range(n))
            and all(g[i][j] % 2 == 0 for i in range(n) for j in range(i))):
        return MinusTwoResult(False, True)
    if lat._positive(strict=False):
        return MinusTwoResult(False, True)
    hits = _bounded_norm_vectors(lat, -2, search_bound)
    if hits:
        return MinusTwoResult(True, True, hits[0])
    return MinusTwoResult(False, False)


class UnboundedFamilyCertificate(arith.Record):
    """Certified degree-4*d0 family with h(-p) distinct oriented complement
    classes inside one rank-3 ambient lattice free of (-2)-classes.

    height_bound is the largest level the witness walk may reach, a level
    being |z| for the image u = (v, z) of the (-d0)-generator; so every
    class found has |classes[j][2]| <= height_bound.
    """

    p: int
    d0: int
    degree: int
    h: int
    forms: tuple[BinaryForm, ...]
    ternaries: tuple[Lattice, ...]
    genus_checks: tuple[tuple[bool, ...], ...]
    isometry_witnesses: tuple[EmbeddingMatrix | None, ...]
    ns_lattice: Lattice
    classes: tuple[Vector | None, ...]
    complement_invariants: tuple[OrbitInvariant, ...]
    minus_two_free: bool
    height_bound: int

    @property
    def witness_gaps(self) -> tuple[int, ...]:
        return tuple(j for j, w in enumerate(self.isometry_witnesses) if w is None)

    @property
    def distinct_orbit_lower_bound(self) -> int:
        """Orbit count certified against the full orthogonal group.

        The h signed records realize the h pairwise non-isomorphic oriented
        complement classes; forgetting orientations merges each mirror pair,
        and only the merged records separate full orthogonal-group orbits.
        """
        return len({inv.unoriented() for inv in self.complement_invariants})


def _family(p: int, d0: int, height_bound: int):
    """Check the parameters of the degree-4*d0 family of p and derive it.

    p must be a prime = 3 mod 4 and d0 positive and odd with p*d0 cube free
    (the ternary classification needs it: Conway and Sloane, SPLAG, ch. 15,
    section 9); p, d0 and height_bound must be ints, the bound at least 1.
    Returns the reduced forms, the ternaries Q_j + (-d0), T_0(-4) and the
    invariants of (0, 0, 1) in each T_j(-4), taken by
    enumeration._orbit_record without orbit_invariant's refusals, which the
    shape of T_j already proves; G e_3 = (0, 0, 4*d0), so e_3^perp is the
    block Q_j(-4) on e_1, e_2, the basis orthogonal_complement returns.  A
    record is taken once per mirror pair: the sorted list puts (a, -b, c)
    before (a, b, c), and F = diag(1, -1, 1) maps the first ternary onto the
    second, fixing e_3 and reversing the orientation of e_3^perp, so the
    second gets OrbitInvariant.mirrored() of the first's record.
    """
    if type(p) is not int or not arith.is_prime(p) or p % 4 != 3:
        raise CensusError("p must be a prime congruent to 3 mod 4")
    if type(d0) is not int or d0 <= 0 or d0 % 2 == 0:
        raise CensusError("d0 must be a positive odd integer")
    if any(e >= 3 for e in arith.factor(p * d0).values()):
        raise CensusError("p*d0 must not be divisible by a cube")
    if type(height_bound) is not int or height_bound < 1:
        raise CensusError("height bound must be positive")
    forms = class_group(-p).elements
    zd0 = Lattice([[-d0]])
    ternaries = tuple(form_to_lattice(f).direct_sum(zd0) for f in forms)
    # T_j = Q_j + (-d0) with Q_j reduced positive definite, so T_j(-4) is
    # nondegenerate of signature (1, 2), and e_3 is primitive of square
    # 4*d0 > 0: orbit_invariant's refusals cannot fire, and no LDL^T of the
    # twist is needed to say so; e_3^perp is the block, and a mirror of an
    # earlier T_k takes its record from T_k's (docstring)
    first: dict[tuple, int] = {}
    invariants: list[OrbitInvariant] = []
    for j, t in enumerate(ternaries):
        k = first.get(_flip(t.gram))
        invariants.append(_orbit_record(t.twist(-4), (0, 0, 1), t._block[0].twist(-4))
                          if k is None else invariants[k].mirrored())
        first[t.gram] = j
    return forms, ternaries, ternaries[0].twist(-4), tuple(invariants)


def _flip(gram):
    """F gram F for F = diag(1, -1, 1) and a symmetric rank-3 Gram.  F is
    unimodular, so the two Grams are isometric; on Q + (-d0) with
    Q = ((2a, b), (b, 2c)) it flips the sign of b."""
    (a, b, c), (_, d, e), (_, _, k) = gram
    return ((a, -b, c), (-b, d, -e), (c, -e, k))


def build_unbounded_family(p: int, d0: int = 1,
                           height_bound: int = HEIGHT_BOUND) -> UnboundedFamilyCertificate:
    """Run the full degree-4*d0 orbit pipeline for a prime p = 3 mod 4.

    Parameters, forms, ternaries, ambient lattice and invariants come from
    one _family call.  Build adds the witnesses T_j -> T_0 from one level
    walk over T_0 (enumeration.level_walk), which stops once every class is
    reached or after level height_bound; a class without a witness is
    recorded as a gap with no ambient class, never faked.  genus_checks is
    the all-true claim the checker proves.  Before returning, build runs the
    claim checks of verify_certificate on what it assembled; only
    verify_certificate also rederives the family.
    """
    forms, ternaries, ambient, invariants = _family(p, d0, height_bound)
    witnesses = level_walk(ternaries, ternaries[0], height_bound)
    h = len(forms)
    cert = UnboundedFamilyCertificate(
        p=p, d0=d0, degree=4 * d0, h=h, forms=forms, ternaries=ternaries,
        genus_checks=((True,) * h,) * h, isometry_witnesses=witnesses,
        ns_lattice=ambient,
        classes=tuple(None if w is None else w.columns[2] for w in witnesses),
        complement_invariants=invariants, minus_two_free=True,
        height_bound=height_bound)
    _check_claims(cert)
    return cert


def certificate_to_json(cert: UnboundedFamilyCertificate) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "unbounded_family_certificate",
        "p": cert.p,
        "d0": cert.d0,
        "degree": cert.degree,
        "h": cert.h,
        "forms": [list(f.as_tuple()) for f in cert.forms],
        "ternaries": [_gram_json(t) for t in cert.ternaries],
        "genus_checks": [list(row) for row in cert.genus_checks],
        "isometry_witnesses": [
            None if w is None else [list(c) for c in w.columns]
            for w in cert.isometry_witnesses],
        "ns_lattice": _gram_json(cert.ns_lattice),
        "classes": [None if a is None else list(a) for a in cert.classes],
        "complement_invariants": [
            {"norm": i.norm, "ambient_disc": list(i.ambient_disc),
             "complement_disc": list(i.complement_disc),
             "complement_class": list(i.complement_class)}
            for i in cert.complement_invariants],
        "minus_two_free": cert.minus_two_free,
        "witness_gaps": list(cert.witness_gaps),
        "height_bound": cert.height_bound,
    }


def certificate_from_json(doc: dict) -> UnboundedFamilyCertificate:
    """Read a certificate document, raising CensusError on any document that
    does not parse as one; verify_certificate checks its claims."""
    if (not isinstance(doc, dict) or doc.get("schema") != SCHEMA
            or doc.get("kind") != "unbounded_family_certificate"):
        raise CensusError("not an unbounded-family certificate document")
    try:
        ternaries = tuple(Lattice(g) for g in doc["ternaries"])
        if len(doc["isometry_witnesses"]) != len(ternaries):
            raise CensusError("witness count differs from ternary count")
        witnesses = tuple(
            None if w is None else EmbeddingMatrix(
                ternaries[j], ternaries[0], tuple(tuple(c) for c in w))
            for j, w in enumerate(doc["isometry_witnesses"]))
        return UnboundedFamilyCertificate(
            p=doc["p"], d0=doc["d0"], degree=doc["degree"], h=doc["h"],
            forms=tuple(BinaryForm(*f) for f in doc["forms"]), ternaries=ternaries,
            genus_checks=tuple(tuple(x is True for x in row)
                               for row in doc["genus_checks"]),
            isometry_witnesses=witnesses,
            ns_lattice=Lattice(doc["ns_lattice"]),
            classes=tuple(None if a is None else tuple(a) for a in doc["classes"]),
            complement_invariants=tuple(
                OrbitInvariant(i["norm"], tuple(i["ambient_disc"]),
                               tuple(i["complement_disc"]),
                               tuple(i["complement_class"]))
                for i in doc["complement_invariants"]),
            minus_two_free=doc["minus_two_free"] is True,
            height_bound=doc["height_bound"],
        )
    except CensusError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CensusError(f"malformed certificate document: {exc!r}") from exc


def verify_certificate(cert: UnboundedFamilyCertificate) -> bool:
    """Recheck every claim in a certificate from scratch.

    This is the only public checker of a certificate.  It rederives the
    family from (p, d0) with the helper build uses, compares it field by
    field, and then runs the claim checks that build_unbounded_family runs
    on what it assembled before returning.  Raises CensusError on the first
    failed check; returns True otherwise.  Every pair of ternaries is proven
    to share a genus, by same_genus of the blocks Q_0 and Q_j (the identity
    on (-d0) extends their isometries) or, for the second member of a
    mirror pair, by the unimodular F = diag(1, -1, 1) onto the first; and
    every record matches the rederived one, which _family takes for that
    member by mirroring, as F also maps e_3 to itself.
    """
    h = cert.h
    forms, ternaries, ambient, invariants = _family(cert.p, cert.d0, cert.height_bound)
    if forms != cert.forms or type(h) is not int or len(forms) != h:
        raise CensusError("form list disagrees with the reduced-form scan")
    if type(cert.degree) is not int or cert.degree != 4 * cert.d0:
        raise CensusError("degree is not 4*d0")
    if not (len(cert.ternaries) == len(cert.isometry_witnesses) == len(cert.classes)
            == len(cert.complement_invariants) == h):
        raise CensusError("ternaries, witnesses, classes and invariants must number h")
    if cert.genus_checks != ((True,) * h,) * h:
        raise CensusError("recorded genus checks are not all true")
    if ternaries != cert.ternaries:
        raise CensusError("ternary lattice was not built from its form")
    if cert.ns_lattice != ambient:
        raise CensusError("ambient lattice is not the twisted first ternary")
    if invariants != cert.complement_invariants:
        raise CensusError("complement invariant does not reproduce")
    _check_claims(cert)
    return True


def _check_claims(cert: UnboundedFamilyCertificate) -> None:
    """Checks of a certificate whose family is the one _family derives: one
    genus row, each witness's ends and class W e_3 (whose square, primitivity
    and record follow from W), distinct invariants and the (-2) certification.
    The row runs same_genus(Q_0, Q_j) on the blocks (Lattice._block) of
    T_j = Q_j + (k), refusing a T_j that does not split with T_0's k: an
    isometry Q_0 -> Q_j over R and every Z_p extends by the identity on (k).
    It skips a T_j whose flip F T_j F, F = diag(1, -1, 1), is exactly T_0 or
    an earlier compared ternary: F is unimodular, so that T_j is isometric
    to a member of T_0's genus.  Raises CensusError on the first failed check."""
    ternaries = cert.ternaries
    # One row proves every pair: same_genus(A, B) forces the same odd primes
    # to divide both determinants, because a p-adic symbol at p | det has a
    # block of positive scale.  So A ~ B, B ~ C and A ~ C all compare symbols
    # over the same primes, and equality of symbols is transitive.  T_0 ~ T_0
    # holds by reflexivity and is not compared.  Q_0 keeps its symbols, so
    # the row computes them once, not h - 1 times.  The flips it skips
    # (docstring) are the second members of the mirror pairs.
    q0, k = ternaries[0]._block
    in_genus = {ternaries[0].gram}
    for t in ternaries[1:]:
        if _flip(t.gram) in in_genus:
            continue
        block = t._block
        if block is None or block[1] != k or not same_genus(q0, block[0]):
            raise CensusError("genus check does not reproduce")
        in_genus.add(t.gram)
    for t, w, alpha in zip(ternaries, cert.isometry_witnesses, cert.classes):
        if w is None:
            if alpha is not None:
                raise CensusError("class present without an isometry witness")
            continue
        # no Gram re-test: level_walk's lift and certificate_from_json build
        # witnesses by the checking EmbeddingMatrix constructor, never by _of
        if (w.source, w.target) != (t, ternaries[0]):
            raise CensusError("witness does not map its ternary to the first one")
        if alpha != w.columns[2]:
            raise CensusError("class is not the witness image of the generator")
        # W^T T_0 W = T_j with equal nonzero determinants makes W unimodular,
        # so alpha = W e_3 is primitive of square 4*d0 in T_0(-4), and W maps
        # e_3 and e_3^perp in T_j(-4) isometrically onto alpha and alpha^perp:
        # alpha has the unoriented record of e_3, which _family computes.
    if len(set(cert.complement_invariants)) != cert.h:
        raise CensusError("complement invariants are not pairwise distinct")
    m2 = has_minus_two_class(cert.ns_lattice)
    if m2.found or not m2.certified or not cert.minus_two_free:
        raise CensusError("(-2)-class certification failed")


def write_certificate(cert: UnboundedFamilyCertificate, path) -> None:
    """Serialize a certificate, then reload and re-verify the written file."""
    doc = certificate_to_json(cert)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(path, "r", encoding="utf-8") as fh:
        verify_certificate(certificate_from_json(json.load(fh)))
