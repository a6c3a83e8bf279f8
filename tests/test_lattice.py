import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from k3lat import linalg
from k3lat.census import MinusTwoResult, has_minus_two_class
from k3lat.enumeration import embeddings, vectors_of_norm
from k3lat.genus import same_genus
from k3lat.lattice import Lattice, LatticeError
from util import (change_basis, pairwise_gram, random_nondegenerate,
                  random_positive_definite, random_symmetric, random_unimodular,
                  scanning_ldl)

A2 = Lattice([[2, 1], [1, 2]])
U = Lattice([[0, 1], [1, 0]])


def test_nested_entry_is_refused_with_a_bounded_message():
    row = []
    for _ in range(989):
        row = [row]  # a row nested 990 deep
    with pytest.raises(LatticeError, match="entries must be integers") as exc:
        Lattice([row])
    assert len(str(exc.value)) < 300


def test_lattice_is_a_frozen_value():
    g = ((2, 1), (1, 2))
    lat = Lattice([[2, 1], [1, 2]])
    assert lat == Lattice(gram=g) == Lattice._of(g) and lat != Lattice([[2, -1], [-1, 2]])
    assert hash(lat) == hash(Lattice._of([[2, 1], [1, 2]])) == hash((g,))
    assert lat != g and lat.__eq__(g) is NotImplemented
    assert len({lat, Lattice(g), Lattice._of(g)}) == 1
    with pytest.raises(AttributeError):
        lat.gram = ((1,),)
    with pytest.raises(AttributeError):
        del lat.gram
    assert lat.gram == g and repr(lat) == "Lattice(2,1;1,2)"
    assert lat.determinant() == 3  # the memos are still written


def test_rejects_bad_gram():
    with pytest.raises(LatticeError):
        Lattice([[1, 2], [3, 4]])
    with pytest.raises(LatticeError):
        Lattice([[1, 2, 3], [2, 1, 0]])
    with pytest.raises(LatticeError):
        Lattice([])


@pytest.mark.parametrize("gram", [
    [[2, 1], [1, 2.9]], [[2.0]], [[Fraction(2)]], [[True]], [[1, "x"]],
    {"a": 1}, 7, [1, 2],
], ids=["fraction-truncated", "float", "Fraction", "bool", "string", "object",
        "scalar", "flat-list"])
def test_refuses_entries_that_are_not_integers(gram):
    with pytest.raises(LatticeError):
        Lattice(gram)


@pytest.mark.parametrize("v", [(1.5, 0), (1.0, 0), (True, 0), 7],
                         ids=["float", "integral-float", "bool", "scalar"])
def test_refuses_vectors_that_are_not_integral(v):
    with pytest.raises(LatticeError):
        A2.norm(v)


@pytest.mark.parametrize("method", ["inner", "norm", "orthogonal_complement"])
@pytest.mark.parametrize("v", [(1.0, 0), (Fraction(1), 0), (True, 0)],
                         ids=["float", "Fraction", "bool"])
def test_public_vector_methods_keep_their_checks(method, v):
    # the unchecked pairing is only for vectors the library built itself
    args = (v, (1, 0)) if method == "inner" else (v,)
    with pytest.raises(LatticeError):
        getattr(A2, method)(*args)


def test_accepts_integer_types_besides_int():
    from sympy import Integer
    lat = Lattice([[Integer(2), 1], [1, Integer(2)]])
    assert lat == A2 and all(type(x) is int for row in lat.gram for x in row)
    assert A2.check_vector((Integer(1), 0)) == (1, 0)


@pytest.mark.parametrize("gram,v,expected", [
    ([[2, 1], [1, 2]], (1, 0), 2),
    ([[2, 1], [1, 2]], (1, -2), 6),
    ([[0, 1], [1, 0]], (1, -1), -2),
])
def test_norm(gram, v, expected):
    assert Lattice(gram).norm(v) == expected


def test_norm_dimension_mismatch():
    with pytest.raises(LatticeError):
        A2.norm((1, 0, 0))


@pytest.mark.parametrize("gram,expected", [
    ([[2, 1], [1, 2]], (2, 0)),
    ([[0, 1], [1, 0]], (1, 1)),
    ([[-8, -4], [-4, -8]], (0, 2)),
    ([[2, 1, 0], [1, 12, 0], [0, 0, -1]], (2, 1)),
])
def test_signature(gram, expected):
    assert Lattice(gram).signature() == expected


def test_signature_zero_diagonal():
    # no diagonal pivot exists, so the elimination has to fold
    assert U.direct_sum(U).signature() == (2, 2)
    assert U.direct_sum(Lattice([[-2]])).signature() == (1, 2)
    assert Lattice([[0, 1, 1], [1, 0, 1], [1, 1, 0]]).signature() == (1, 2)


def test_signature_degenerate():
    with pytest.raises(LatticeError):
        Lattice([[1, 1], [1, 1]]).signature()


@pytest.mark.parametrize("gram,expected", [
    ([[2, 1], [1, 2]], 3),
    ([[6, 0], [0, 2]], 12),
    ([[0, 1], [1, 0]], -1),
])
def test_determinant(gram, expected):
    assert Lattice(gram).determinant() == expected


@pytest.mark.parametrize("gram,expected", [
    ([[2, 0], [0, 2]], (2, 2)),
    ([[2, 1], [1, 2]], (3,)),
    ([[6, 0], [0, 2]], (2, 6)),
])
def test_discriminant_group(gram, expected):
    assert Lattice(gram).discriminant_group() == expected


def test_discriminant_group_divisibility_and_product(rng):
    for _ in range(30):
        lat = random_nondegenerate(rng.choice([2, 3, 4]), rng)
        factors = lat.discriminant_group()
        prod = math.prod(factors) if factors else 1
        assert prod == abs(lat.determinant())
        assert all(factors[i] % factors[i - 1] == 0 for i in range(1, len(factors)))


def test_direct_sum_and_twist():
    assert Lattice([[2]]).direct_sum(Lattice([[-2]])).gram == ((2, 0), (0, -2))
    s = A2.direct_sum(Lattice([[-1]]))
    assert s.rank == 3 and s.determinant() == -3
    assert A2.twist(-4).gram == ((-8, -4), (-4, -8))
    assert Lattice([[1]]).twist(7).gram == ((7,),)
    assert A2.twist(-1).twist(-1) == A2
    assert A2.twist(-4).determinant() == (-4) ** 2 * 3
    with pytest.raises(LatticeError):
        A2.twist(0)


def test_twist_refuses_a_factor_that_is_not_an_integer():
    with pytest.raises(LatticeError, match="integers"):
        Lattice([[2]]).twist(2.5)


def test_orthogonal_complement_rank20_example():
    # rank-3 lattice entering the twistor-fibre construction: splitting at the
    # last vector recovers the binary part, splitting at the first yields a
    # lattice with a different discriminant group
    l3 = A2.direct_sum(Lattice([[2]]))
    comp3, basis3 = l3.orthogonal_complement((0, 0, 1))
    assert comp3.gram == ((2, 1), (1, 2))
    comp1, basis1 = l3.orthogonal_complement((1, 0, 0))
    assert comp1.gram == ((6, 0), (0, 2))
    assert basis1 == ((1, -2, 0), (0, 0, 1))
    assert comp1.discriminant_group() == (2, 6)
    assert comp3.discriminant_group() == (3,)


def test_orthogonal_complement_one_equation():
    comp, _ = Lattice([[2, 0], [0, 2]]).orthogonal_complement((1, 1))
    assert comp.gram == ((4,),)


def test_unchecked_complement_gram_matches_the_pairwise_construction(rng):
    for _ in range(60):
        lat = random_nondegenerate(rng.choice([2, 3, 4]), rng)
        v = tuple(rng.randint(-4, 4) for _ in range(lat.rank))
        if not any(v):
            continue
        comp, basis = lat._complement(v)
        assert comp.gram == tuple(map(tuple, pairwise_gram(lat, basis)))
        assert (comp, basis) == lat.orthogonal_complement(v)


def test_orthogonal_complement_exactness(rng):
    for _ in range(25):
        lat = random_nondegenerate(rng.choice([2, 3, 4]), rng)
        v = tuple(rng.randint(-4, 4) for _ in range(lat.rank))
        if all(x == 0 for x in v):
            continue
        try:
            comp, basis = lat.orthogonal_complement(v)
        except LatticeError:
            continue
        assert comp.rank == lat.rank - 1
        for b in basis:
            assert lat.inner(b, v) == 0
            assert math.gcd(*b) == 1
        for i, bi in enumerate(basis):
            for j, bj in enumerate(basis):
                assert lat.inner(bi, bj) == comp.gram[i][j]


def test_invariants_under_basis_change(rng):
    for _ in range(100):
        lat = random_nondegenerate(rng.choice([2, 3]), rng)
        u = random_unimodular(lat.rank, rng)
        other = change_basis(lat, u)
        assert other.signature() == lat.signature()
        assert abs(other.determinant()) == abs(lat.determinant())
        assert other.discriminant_group() == lat.discriminant_group()


@given(st.lists(st.integers(-9, 9), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_signature_counts_sum_to_rank(entries):
    a, b, c = entries
    lat = Lattice([[a, b], [b, c]])
    if lat.determinant() == 0:
        return
    pos, neg = lat.signature()
    assert pos + neg == 2
    # a negative determinant means exactly one eigenvalue of each sign
    assert (lat.determinant() > 0) == (pos % 2 == 0)


def test_one_elimination_per_lattice(monkeypatch):
    calls = []

    def counted(gram):
        calls.append(gram)
        return ldl(gram)

    ldl = linalg.ldl
    monkeypatch.setattr(linalg, "ldl", counted)
    lat = Lattice([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])  # A3
    assert lat.determinant() == 4 and lat.signature() == (3, 0)
    assert lat.is_positive_definite()
    assert len(vectors_of_norm(lat, 4)) == 6
    assert len(embeddings(lat, lat)) == 48
    assert has_minus_two_class(lat) == MinusTwoResult(False, True)
    assert len(calls) == 1


def test_one_smith_form_per_lattice(monkeypatch):
    calls = []
    smith = linalg.smith_invariants
    monkeypatch.setattr(linalg, "smith_invariants",
                        lambda rows: calls.append(rows) or smith(rows))
    lat = Lattice([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])  # A3
    assert lat.discriminant_group() == lat.discriminant_group() == (4,)
    assert len(calls) == 1
    degenerate = Lattice([[1, 1], [1, 1]])
    for _ in range(2):
        with pytest.raises(LatticeError, match="degenerate"):
            degenerate.discriminant_group()
    assert len(calls) == 2


def test_memos_give_the_serial_answers_under_threads():
    # a first read of a memo takes no lock: threads racing on it may each
    # compute and store it, but every store is the value the Gram matrix
    # determines, so each thread reads what a serial run reads
    rng = random.Random(31)
    grams = [random_nondegenerate(3, rng).gram for _ in range(60)]

    def answers(lats):
        return [(lat.signature(), lat.determinant(), lat.discriminant_group(),
                 same_genus(lats[0], lat)) for lat in lats]

    want = answers([Lattice(g) for g in grams])
    shared = [Lattice(g) for g in grams]
    got = [None] * 8

    def work(k):
        got[k] = answers(shared)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * 8


# -- linalg against sympy's Matrix as the oracle --------------------------------

ZERO_DIAGONAL_GRAMS = [
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],  # U + U
    [[0, 1, 0], [1, 0, 0], [0, 0, -2]],                      # U + <-2>
    [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    [[0, 2, 0], [2, 0, 0], [0, 0, 0]],                       # degenerate
    [[0, 0], [0, 0]],
]


def _sign_changes(coeffs):
    signs = [c for c in coeffs if c != 0]
    return sum(1 for x, y in zip(signs, signs[1:]) if (x > 0) != (y > 0))


def _descartes_inertia(gram):
    """(positive, negative, zero) eigenvalue counts from the characteristic
    polynomial; Descartes' rule is exact because every root is real."""
    coeffs = [int(c) for c in Matrix(gram).charpoly().all_coeffs()]
    zero = 0
    while coeffs[-1] == 0:
        coeffs.pop()
        zero += 1
    deg = len(coeffs) - 1
    flipped = [c if (deg - i) % 2 == 0 else -c for i, c in enumerate(coeffs)]
    return _sign_changes(coeffs), _sign_changes(flipped), zero


def _sympy_invariants(rows):
    d = smith_normal_form(Matrix(rows))
    return sorted(abs(int(d[i, i])) for i in range(min(d.shape)) if d[i, i] != 0)


def _random_grams(rng):
    grams = [list(map(list, g)) for g in ZERO_DIAGONAL_GRAMS]
    for _ in range(120):
        g = random_symmetric(rng.randint(1, 8), rng, scale=rng.choice([1, 3, 6]))
        if rng.random() < 0.2:
            for i in range(len(g)):
                g[i][i] = 0
        grams.append(g)
    return grams


def test_linalg_matches_sympy_on_symmetric_grams(rng):
    for g in _random_grams(rng):
        m = Matrix(g)
        lat = Lattice(g)
        assert lat.determinant() == m.det(), g
        if m.det() != 0:
            pos, neg, _ = _descartes_inertia(g)
            assert lat.signature() == (pos, neg), g
        minors, _ = linalg.ldl(g)
        # the pivot d_k = P_{k+1}/P_k has the sign of P_k P_{k+1}
        signs = [a * b for a, b in zip(minors, minors[1:])]
        inertia = (sum(x > 0 for x in signs), sum(x < 0 for x in signs),
                   sum(x == 0 for x in signs))
        assert inertia == _descartes_inertia(g), g
        # row additions are unimodular, so the last minor is the determinant
        assert minors[0] == 1 and minors[-1] == m.det(), g
        assert linalg.smith_invariants(g) == _sympy_invariants(g), g
        if m.det() != 0:
            inv = linalg.inverse(g)
            assert Matrix(inv) == m.inv(), g
        else:
            with pytest.raises(ZeroDivisionError):
                linalg.inverse(g)


@pytest.mark.parametrize("kernel,rows", [
    (linalg.ldl, [[Fraction(3, 2), 0], [0, 2.7]]),
    (linalg.smith_invariants, [[2.5]]),
    (linalg.hnf_columns, [(1, 0), (0, 2.7)]),
    (linalg.kernel_basis, [2, 4.0, 6]),
], ids=["ldl", "smith_invariants", "hnf_columns", "kernel_basis"])
def test_integer_kernels_refuse_entries_that_are_not_integers(kernel, rows):
    # int() would truncate these to minors [1, 1, 2], [2] and a basis
    with pytest.raises(TypeError):
        kernel(rows)


def test_smith_invariants_rectangular_and_imprimitive(rng):
    cases = [[[2, 4, 6], [6, 8, 10]], [[2, 4], [6, 8], [4, 4]], [[0, 0, 0]],
             [[6], [10], [15]], [[4, 0], [0, 6]]]
    for _ in range(120):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        scale = rng.choice([1, 2, 3, 6])
        cases.append([[scale * rng.randint(-6, 6) for _ in range(cols)]
                      for _ in range(rows)])
    for a in cases:
        factors = linalg.smith_invariants(a)
        assert factors == _sympy_invariants(a), a
        assert all(f2 % f1 == 0 for f1, f2 in zip(factors, factors[1:])), a


def test_small_square_smith_invariants_match_sympy(rng):
    # sizes 1-3 take the gcds of minors; singular, zero and non-symmetric
    # matrices included
    cases = [[[0]], [[0, 0], [0, 0]], [[0] * 3] * 3, [[-5]], [[2, 4], [3, 6]]]
    while len(cases) < 5000:
        n, scale = rng.randint(1, 3), rng.choice([1, 2, 6, 100, 10**6])
        a = [[0 if rng.random() < 0.3 else rng.randint(-scale, scale) for _ in range(n)]
             for _ in range(n)]
        if n > 1 and rng.random() < 0.2:  # a multiple of another row
            a[-1] = [rng.randint(-3, 3) * x for x in a[0]]
        cases.append(a)
    for a in cases:
        assert linalg.smith_invariants(a) == _sympy_invariants(a), a


def _hermite_kernel(w):
    n = len(w)
    hnf = linalg.hnf_columns([(w[j],) + tuple(int(i == j) for i in range(n))
                              for j in range(n)])
    return [c[1:] for c in hnf[1:]]


def test_kernel_basis_is_the_hermite_sweep(rng):
    rows = [[1, 0, 0], [-3, 0, 0], [0, 0, 5], [0, -4, 0], [6, 10, 15], [4, -6, 0]]
    while len(rows) < 20000:
        scale = 10 ** rng.randint(0, 6)
        w = [0 if rng.random() < 0.25 else rng.randint(-scale, scale) for _ in range(3)]
        if rng.random() < 0.2:  # not primitive
            w = [rng.randint(2, 30) * x for x in w]
        if any(w):
            rows.append(w)
    for w in rows:
        assert linalg.kernel_basis(w) == _hermite_kernel(w), w


def test_ldl_is_rational_cholesky_on_definite_grams(rng):
    """On a definite Gram the minors are the leading principal minors and
    x^T G x = sum_k (sum_j r_k[j] x_j)^2 / (P_k P_{k+1}), the rational
    Cholesky form with d_k = P_{k+1}/P_k and u_kj = r_k[j]/P_{k+1}."""
    for _ in range(40):
        lat = random_positive_definite(rng.randint(1, 5), rng)
        minors, rows = linalg.ldl(lat.gram)
        n = lat.rank
        m = Matrix(lat.gram)
        assert minors == [1] + [m[:k, :k].det() for k in range(1, n + 1)]
        for k, row in enumerate(rows):
            assert row[k] == minors[k + 1] and not any(row[:k])
        x = [rng.randint(-4, 4) for _ in range(n)]
        expand = sum(Fraction(sum(r * xj for r, xj in zip(row, x)) ** 2,
                              minors[k] * minors[k + 1])
                     for k, row in enumerate(rows))
        assert expand == lat.norm(x)


def _ldl_cases(rng):
    """Random symmetric matrices of size 1-6 with entries in [-5, 5]; a third
    get a zero diagonal (the pair fold) and a third repeat a row and column,
    so their elimination ends early."""
    for t in range(2400):
        n = rng.randint(1, 6)
        g = random_symmetric(n, rng, scale=5)
        if t % 3 == 1:
            for i in range(n):
                g[i][i] = 0
        elif t % 3 == 2 and n > 1:
            i, j = rng.sample(range(n), 2)
            for row in g:
                row[j] = row[i]
            g[j] = list(g[i])
        yield g


def test_ldl_matches_the_scanning_elimination(rng):
    folds = degenerate = 0
    for g in _ldl_cases(rng):
        minors, rows = linalg.ldl(g)
        assert (minors, rows) == scanning_ldl(g), g
        assert all(type(x) is int for row in rows for x in row), g
        folds += any(g) and not any(g[i][i] for i in range(len(g)))
        degenerate += minors[-1] == 0
    assert folds > 500 and degenerate > 700, (folds, degenerate)


def _trusted(lat):
    """lat is what the public constructor makes of its Gram matrix."""
    assert lat == Lattice(lat.gram) and type(lat.gram) is tuple
    assert all(type(row) is tuple for row in lat.gram), lat
    assert all(type(x) is int for row in lat.gram for x in row), lat
    return lat


def test_built_lattices_equal_their_checked_construction(rng):
    for _ in range(200):
        lat = random_nondegenerate(rng.randint(1, 4), rng)
        other = Lattice(random_symmetric(rng.randint(1, 3), rng))
        _trusted(lat.twist(rng.choice([-4, -1, 2, 3])))
        total = _trusted(lat.direct_sum(other))
        if lat.rank > 1:
            v = [rng.randint(-3, 3) for _ in range(lat.rank)]
            if any(v):
                _trusted(lat.orthogonal_complement(v)[0])
        if total._block is not None:
            _trusted(total._block[0])
    block = A2.direct_sum(Lattice([[-1]]))._block
    assert _trusted(block[0]) == A2 and block[1] == -1


def test_direct_sum_refuses_what_is_not_a_lattice():
    class Impostor:
        gram = ((2.5,),)
        rank = 1

    with pytest.raises(LatticeError, match="Lattice"):
        A2.direct_sum(Impostor())
    with pytest.raises(LatticeError, match="Lattice"):
        A2.direct_sum(((1,),))
