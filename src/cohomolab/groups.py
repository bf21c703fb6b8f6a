"""Finite groups as explicit multiplication tables, rows of bytes up to
order 256 and of array('H') above, from construction on (_row_type).

Groups are built from polycyclic normal forms A^a B^b C^c ... with
hand-derived collection rules per family, then tabulated row by row from
the generators' rows (_tabulate).  Element 0 is always the identity and
numbering is lexicographic, so matrices and cache keys are reproducible.

Families (all with p an odd prime unless noted):
  P(n):    A^p = B^p = C^{p^(n-2)} = [A,C] = [B,C] = 1, [A,B] = C^{p^(n-3)}
  M(n):    A^p = B^{p^(n-1)} = 1, [B,A] = B^{p^(n-2)}
  B(n,e):  A^p = B^p = C^{p^(n-2)} = [B,C] = 1, [A,C^-1] = B,
           [B,A] = C^{e p^(n-3)}   (convention h^g = g^-1 h g)
  G_a1:    A^{p^a} = B^p = C^p = [A,C] = [B,C] = 1, [A,B] = C
  cyclic, direct products, and (C_p)^k semidirect a matrix group over F_p.

Each group question has one routine: closure_members gives the subgroup
a set generates (FiniteGroup's generation check included),
generating_set a greedy generating set (Subgroup.as_group and the linear
characters), FiniteGroup.classes the conjugacy classes, which also tell
the classes of order-p subgroups apart (order_p_subgroup_classes), and
_primitive_polynomial the Singer cycle.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import operator
import re
import struct
import sys
from array import array
from typing import Iterable, NamedTuple, Optional, Sequence

from .exact_linalg import (_mat_mul, _mat_pow, _prime_factors, is_prime,
                           matrix_group_closure)

MAX_TABLE_ORDER = 4096
_ZERO_PAIR = re.compile(b"\0\0")  # see _find_identity


class ConjugacyClasses(NamedTuple):
    """The conjugacy classes of a group, numbered by least element, so
    that class 0 is the identity and reps[k] is the least element of k."""

    of: list[int]  # element -> its class
    reps: tuple[int, ...]
    sizes: tuple[int, ...]
    inverse: tuple[int, ...]  # class k -> the class of the inverses of k


@functools.cache
def _row_type(order: int):
    """(row, source, reader) for the tables of this order.  row(entries)
    is a compact row: bytes up to order 256, else array('H'), 2 bytes an
    entry, and a compact row is kept as it is.  reader(index) is the
    function source(r) -> r read at the entries of the row index, as a
    row: one bytes.translate, r padded to the 256 bytes of a translation
    table, up to order 256; above, one itemgetter over r as a list and
    one struct pack."""
    if order <= 256:
        pad = bytes(256 - order)
        return bytes, lambda r: r + pad, operator.attrgetter("translate")
    pack = struct.Struct(f"={order}H").pack

    def reader(index):
        get = operator.itemgetter(*index)
        return lambda source: array("H", pack(*get(source)))
    return (lambda r: r if type(r) is array and r.typecode == "H"
            else array("H", r)), array.tolist, reader


def _below(rows: list, order: int) -> bool:
    """Whether every entry of the rows is < order.  Up to order 256 the
    bytes below order are deleted from the joined rows.  Above, a row is
    read as one integer x of 16-bit fields: adding 2^16 - order to each
    field carries out of the first field whose entry is >= order, and of
    none if none is; (x + add) ^ x ^ add is the carry into each bit."""
    if order <= 256:
        return not b"".join(rows).translate(None, bytes(range(order)))
    ones = int.from_bytes(b"\1\0" * order, "little")  # a 1 in every field
    add, carries = (65536 - order) * ones, ones << 16
    return not any(((x + add) ^ x ^ add) & carries for x in (
        int.from_bytes(row, sys.byteorder) for row in rows))


def _find_identity(row: array) -> int:
    """row.index(0) for an array('H') row, or -1: two zero bytes at an even
    offset of its buffer, read in place (array.index boxes every entry)."""
    m = _ZERO_PAIR.search(row)
    while m and m.start() & 1:  # the zero bytes of two entries
        m = _ZERO_PAIR.search(row, m.start() + 1)
    return m.start() >> 1 if m else -1


class FiniteGroup:
    """Immutable finite group on indices 0..order-1 with 0 = identity."""

    __slots__ = ("order", "mul", "inv", "generators", "name", "factors",
                 "_digest", "_classes")

    def __init__(self, mul: Sequence[Sequence[int]],
                 generators: Sequence[int], name: str):
        order = len(mul)
        if order == 0 or order > MAX_TABLE_ORDER:
            raise ValueError(f"group order {order} outside supported range")
        row, source, reader = _row_type(order)
        try:  # a row that is compact already is kept as it is
            mul = list(map(row, mul))
        except (TypeError, ValueError, OverflowError):
            mul = None
        if mul is None or any(map(order.__ne__, map(len, mul))) \
                or not _below(mul, order):
            raise ValueError(f"a table of order {order} needs {order} rows "
                             f"of {order} entries in range({order})")
        self.order = order
        self.mul: list[bytes] | list[array] = mul
        self.name = name
        # identity / inverses
        identity = row(range(order))
        if mul[0] != identity or row([r[0] for r in mul]) != identity:
            raise ValueError("element 0 is not an identity")
        self.inv = list(map(bytes.find, mul, itertools.repeat(0))
                        if order <= 256 else map(_find_identity, mul))
        for g, h in enumerate(self.inv):
            if h < 0 or mul[h][g] != 0:
                raise ValueError(f"no two-sided inverse for element {g}")
        self.generators = tuple(generators)
        if len(closure_members(self, self.generators)) != order:
            raise ValueError("declared generators do not generate the group")
        # Light's test: (x*s)*y = x*(s*y) for every x, y and generator s,
        # row x read at the entries of row s against row x*s.  The s that
        # pass are closed under products and every element is a product of
        # generators, so the whole table is associative.
        reads = [(s, reader(mul[s])) for s in self.generators]
        for row_x in mul:
            read_x = source(row_x)
            for s, times_s in reads:
                if times_s(read_x) != mul[row_x[s]]:
                    raise ValueError("multiplication table is not associative")
        # the factors of a direct product (build_product), else none: the
        # table and generators alone decide the digest
        self.factors: tuple[FiniteGroup, ...] = ()
        self._digest = None
        self._classes = None

    def classes(self) -> ConjugacyClasses:
        """Conjugacy classes, as orbits under conjugation by the
        generators (which generate every conjugation); computed once."""
        if self._classes is None:
            of = [-1] * self.order
            reps, sizes = [], []
            for g in range(self.order):
                if of[g] >= 0:
                    continue
                # g is the least element of a class not yet seen
                k = len(reps)
                of[g] = k
                orbit = [g]
                for x in orbit:  # the loop reads the orbit as it grows
                    for s in self.generators:
                        y = self.conj(s, x)
                        if of[y] < 0:
                            of[y] = k
                            orbit.append(y)
                reps.append(g)
                sizes.append(len(orbit))
            self._classes = ConjugacyClasses(
                of, tuple(reps), tuple(sizes),
                tuple(of[self.inv[g]] for g in reps))
        return self._classes

    def conj(self, g: int, h: int) -> int:
        """h^g = g^-1 h g."""
        return self.mul[self.mul[self.inv[g]][h]][g]

    def power(self, g: int, k: int) -> int:
        if k < 0:
            g, k = self.inv[g], -k
        out = 0
        while k:
            if k & 1:
                out = self.mul[out][g]
            g = self.mul[g][g]
            k >>= 1
        return out

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != 0:
            x = self.mul[x][g]
            k += 1
        return k

    def exponent(self) -> int:
        return math.lcm(*map(self.element_order, range(self.order)))

    def digest(self) -> str:
        """Stable key of the group, for cache files and memos: the first
        16 hex digits of the SHA-256 of |G| as 2 little-endian bytes, then
        each generator's column x -> x*s, one byte per entry when
        |G| <= 256 and 2 little-endian bytes above that.  The columns
        determine the table, as every y is a word s_1...s_k in the
        generators and x*y = (...(x*s_1)...)*s_k, and they are those of a
        group certified by __init__."""
        if self._digest is None:
            order = self.order
            h = hashlib.sha256(order.to_bytes(2, "little"))
            for s in self.generators:
                col = list(map(operator.itemgetter(s), self.mul))
                h.update(bytes(col) if order <= 256
                         else struct.pack(f"<{order}H", *col))
            self._digest = h.hexdigest()[:16]
        return self._digest

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


class Subgroup:
    """Subgroup given by its sorted member set plus left-coset transversal."""

    __slots__ = ("parent", "members", "member_set", "transversal", "index_of")

    def __init__(self, parent: FiniteGroup, members: Iterable[int]):
        self.parent = parent
        members = sorted(set(members))
        mset = set(members)
        mul, inv = parent.mul, parent.inv
        if 0 not in mset:
            raise ValueError("subgroup must contain the identity")
        for a in members:
            if inv[a] not in mset:
                raise ValueError("subgroup not closed under inversion")
            for b in members:
                if mul[a][b] not in mset:
                    raise ValueError("subgroup not closed under multiplication")
        if parent.order % len(members) != 0:
            raise ValueError("subgroup order does not divide group order")
        self.members = tuple(members)
        self.member_set = frozenset(mset)
        # left cosets gH; least-index representative each
        seen = [False] * parent.order
        trans = []
        for g in range(parent.order):
            if not seen[g]:
                trans.append(g)
                for h in members:
                    seen[mul[g][h]] = True
        if len(trans) * len(members) != parent.order:
            raise ValueError("coset decomposition failed")
        self.transversal = tuple(trans)
        self.index_of = {h: i for i, h in enumerate(self.members)}

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def index(self) -> int:
        return len(self.transversal)

    def as_group(self) -> FiniteGroup:
        """The subgroup as a standalone FiniteGroup, its members numbered
        in parent order (so the identity is 0), generated by
        generating_set."""
        idx = self.index_of
        mul = [[idx[self.parent.mul[a][b]] for b in self.members]
               for a in self.members]
        gens = [idx[g] for g in generating_set(self.parent, self.members)]
        return FiniteGroup(mul, gens, f"{self.parent.name}|sub{self.order}")

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.name})"


# ---------------------------------------------------------------------------
# Family constructors (normal forms + collection rules)
# ---------------------------------------------------------------------------


def _table_order(order: int) -> int:
    """order, once FiniteGroup would take a table of that order; checked
    before a |G| x |G| table is allocated (ValueError otherwise)."""
    if not 0 < order <= MAX_TABLE_ORDER:
        raise ValueError(f"group order {order} outside supported range "
                         f"1..{MAX_TABLE_ORDER}")
    return order


def _power_order(p: int, n: int) -> int:
    """_table_order(p^n) for p >= 2, without computing p^n for a huge n."""
    if not 0 <= n <= MAX_TABLE_ORDER.bit_length():
        raise ValueError(f"group order {p}^{n} outside supported range "
                         f"1..{MAX_TABLE_ORDER}")
    return _table_order(p ** n)


def _tabulate(moduli: list[int], compose,
              gens_exp) -> tuple[list[bytes] | list[array], list[int]]:
    """(multiplication table, generator indices) of a group whose elements
    are exponent vectors with the given moduli (lexicographic numbering)
    and whose product is computed by `compose(e1, e2) -> exponent vector`
    (a tuple).

    compose is called on the generator rows only, |G| * |gens| times.  A
    breadth-first tree from the identity reaches every element y*s as an
    edge from y, and row y*s is x -> y*(s*x), row y read at the entries
    of compose's row s (_row_type's reader).  When compose is associative
    this is its table, by induction along the tree; FiniteGroup's Light's
    test then certifies the table as a group whose generator rows are
    compose's, as the tree reaches them from the identity."""
    n = _table_order(math.prod(moduli))
    row, source, reader = _row_type(n)
    elems = list(itertools.product(*[range(m) for m in moduli]))
    num = {e: i for i, e in enumerate(elems)}
    gens = [num[tuple(e)] for e in gens_exp]
    reads = [(s, reader(row([num[compose(elems[s], e)] for e in elems])))
             for s in gens]
    rows = [row(range(n))] + [None] * (n - 1)
    tree = [0]
    for y in tree:  # the loop reads the tree as it grows
        row_y, read_y = rows[y], source(rows[y])
        for s, times_s in reads:
            ys = row_y[s]
            if rows[ys] is None:
                rows[ys] = times_s(read_y)
                tree.append(ys)
    if len(tree) != n:
        raise ValueError("declared generators do not generate the group")
    return rows, gens


def _with_order(G: FiniteGroup, expected: int) -> FiniteGroup:
    """G, once its order is the one its construction promises."""
    if G.order != expected:
        raise ArithmeticError(f"{G.name} has order {G.order}, "
                              f"expected {expected}")
    return G


def _check_odd_prime(p: int) -> None:
    if p < 3 or not is_prime(p):
        raise ValueError(f"p={p} must be an odd prime")


def build_P(n: int, p: int) -> FiniteGroup:
    """P(n): order p^n, exponent p; P(3) is the extraspecial group of
    exponent p (also exposed as P_2(p))."""
    _check_odd_prime(p)
    if n < 3:
        raise ValueError("P(n) needs n >= 3")
    _power_order(p, n)
    m = p ** (n - 3)
    pc = p ** (n - 2)
    # B^b A^a = A^a B^b C^{-m a b} with C central

    def compose(e1, e2):
        a1, b1, c1 = e1
        a2, b2, c2 = e2
        return ((a1 + a2) % p, (b1 + b2) % p, (c1 + c2 - m * a2 * b1) % pc)

    G = FiniteGroup(*_tabulate([p, p, pc], compose,
                               [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
                    f"P({n},p={p})")
    return _with_order(G, p ** n)


def build_M(n: int, p: int) -> FiniteGroup:
    """M(n): order p^n, the modular group of that order."""
    _check_odd_prime(p)
    if n < 3:
        raise ValueError("M(n) needs n >= 3")
    _power_order(p, n)
    pb = p ** (n - 1)
    r = 1 + p ** (n - 2)
    # B^A = B^r hence B^b A^a = A^a B^{b r^a}

    def compose(e1, e2):
        a1, b1 = e1
        a2, b2 = e2
        return ((a1 + a2) % p, (b1 * pow(r, a2, pb) + b2) % pb)

    G = FiniteGroup(*_tabulate([p, pb], compose, [(1, 0), (0, 1)]),
                    f"M({n},p={p})")
    return _with_order(G, p ** n)


def build_B(n: int, epsilon: int, p: int) -> FiniteGroup:
    """B(n,e): order p^n; A acts on the abelian <B,C> by C -> BC and
    B -> B C^{e p^(n-3)}."""
    _check_odd_prime(p)
    if n < 4:
        raise ValueError("B(n,epsilon) needs n >= 4")
    if epsilon % p == 0:
        raise ValueError("epsilon must be nonzero mod p")
    _power_order(p, n)
    m = p ** (n - 3)
    pc = p ** (n - 2)

    def compose(e1, e2):
        a1, b1, c1 = e1
        a2, b2, c2 = e2
        for _ in range(a2):  # B^b1 C^c1 conjugated by A, a2 times
            b1, c1 = (b1 + c1) % p, (epsilon * m * b1 + c1) % pc
        return ((a1 + a2) % p, (b1 + b2) % p, (c1 + c2) % pc)

    G = FiniteGroup(*_tabulate([p, p, pc], compose,
                               [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
                    f"B({n},{epsilon},p={p})")
    return _with_order(G, p ** n)


def build_G_a1(a: int, p: int) -> FiniteGroup:
    """G(a,1): order p^(a+2); A of order p^a, [A,B] = C central of order p."""
    _check_odd_prime(p)
    if a < 1:
        raise ValueError("G(a,1) needs a >= 1")
    _power_order(p, a + 2)
    pa = p ** a

    def compose(e1, e2):
        a1, b1, c1 = e1
        a2, b2, c2 = e2
        return ((a1 + a2) % pa, (b1 + b2) % p, (c1 + c2 - a2 * b1) % p)

    G = FiniteGroup(*_tabulate([pa, p, p], compose,
                               [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
                    f"G({a},1,p={p})")
    return _with_order(G, p ** (a + 2))


def build_cyclic(m: int) -> FiniteGroup:
    twice = _row_type(_table_order(m))[0](range(m)) * 2
    return FiniteGroup([twice[i:i + m] for i in range(m)],
                       [1] if m > 1 else [], f"C{m}")


def build_product(factors: Sequence[FiniteGroup]) -> FiniteGroup:
    """Direct product, numbered lexicographically in the factor indices:
    (a, b) is a * |H| + b, so the table of (G x H) is built from the rows
    of G and of H, one factor at a time.  Row (g, h) holds (g*g', h*h') =
    (g*g')*|H| + h*h' at (g', h'): it joins, for each g' in turn, block
    z = g*g' of h, the row of h shifted by z*|H|.  The factors are
    recorded on the group; a product of one factor records that factor's
    own."""
    if not factors:
        raise ValueError("empty product")
    _table_order(math.prod(G.order for G in factors))
    mul = factors[0].mul
    for H in factors[1:]:
        m, a = H.order, len(mul)
        row = _row_type(a * m)[0]
        offsets = [x - x % m for x in range(a * m)]  # z*|H| in block z
        blocks = []
        for row_h in H.mul:
            shifted = row(map(operator.add, row_h * a, offsets))
            blocks.append([shifted[x:x + m] for x in range(0, a * m, m)])
        # itemgetter of one index returns the item itself, not a tuple
        reads = [operator.itemgetter(*row_g) for row_g in mul] if a > 1 \
            else [tuple]
        mul = [row(b"".join(read(blocks_h)))
               for read in reads for blocks_h in blocks]
    gens = []
    stride = len(mul)
    for G in factors:
        stride //= G.order
        gens += [g * stride for g in G.generators]
    name = " x ".join(G.name for G in factors)
    G = FiniteGroup(mul, gens, name)
    G.factors = tuple(factors) if len(factors) > 1 else factors[0].factors
    return G


def build_semidirect(p: int, k: int, matrices: Sequence[Sequence[Sequence[int]]],
                     name: Optional[str] = None) -> FiniteGroup:
    """(C_p)^k semidirect the matrix group generated by `matrices` over F_p.

    Elements are pairs (v, Q) with (v, Q)(w, R) = (v + Q w, Q R).
    """
    if not is_prime(p):
        raise ValueError(f"p={p} must be prime")
    n_vecs = _power_order(p, k)
    gens_m = [tuple(tuple(r[j] % p for j in range(k)) for r in M) for M in matrices]
    order_list = matrix_group_closure(gens_m, p, k, MAX_TABLE_ORDER // n_vecs)
    Q = {A: i for i, A in enumerate(order_list)}
    # (v, Q) is the exponent vector v + (Q's index,), so (0, I) is 0
    products = {}  # (a, b) -> index of Q_a Q_b, for the pairs compose meets
    images = {}  # (a, w) -> Q_a w, likewise

    def compose(e1, e2):
        a, b, w = e1[k], e2[k], e2[:k]
        if (a, b) not in products:
            products[a, b] = Q[_mat_mul(order_list[a], order_list[b], p)]
        if (a, w) not in images:
            images[a, w] = tuple(sum(map(operator.mul, r, w)) % p
                                 for r in order_list[a])
        return tuple([(x + y) % p for x, y in zip(e1, images[a, w])]
                     + [products[a, b]])

    units = [tuple(int(i == j) for j in range(k)) for i in reversed(range(k))]
    G = FiniteGroup(*_tabulate([p] * k + [len(order_list)], compose,
                               [v + (0,) for v in units]
                               + [(0,) * k + (Q[M],) for M in gens_m]),
                    name or f"(C{p})^{k} : Q{len(order_list)}")
    return _with_order(G, n_vecs * len(order_list))


def _primitive_polynomial(p: int, n: int) -> tuple:
    """The companion matrix of the first monic primitive polynomial
    x^n + c_{n-1} x^{n-1} + ... + c_0 over F_p, (c_0, .., c_{n-1}) in
    lexicographic order: the matrix has multiplicative order p^n - 1.
    (-1)^n c_0, the product of the roots, is the norm of a generator of
    F_(p^n)^*, so it generates F_p^*: the other values of c_0 are skipped."""
    order = p ** n - 1
    primes = _prime_factors(order)
    units = _prime_factors(p - 1)
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for c0 in range(1, p):
        if any(pow((-1) ** n * c0, (p - 1) // q, p) == 1 for q in units):
            continue
        for coeffs in _tuples((c0,), p, n - 1):
            C = tuple(tuple((-coeffs[i]) % p if j == n - 1
                            else int(i == j + 1) for j in range(n))
                      for i in range(n))
            if _mat_pow(C, order, p) == ident and all(
                    _mat_pow(C, order // q, p) != ident for q in primes):
                return C
    raise ValueError("no primitive polynomial found")  # unreachable for prime p


def _tuples(head: tuple, p: int, n: int):
    """head followed by each n-tuple over range(p), in lexicographic
    order, without listing range(p) (p may be near 2^31)."""
    if n == 0:
        yield head
        return
    for x in range(p):
        yield from _tuples(head + (x,), p, n - 1)


def singer_group(p: int, n: int) -> FiniteGroup:
    """(C_p)^n semidirect C_{p^n - 1}, the cyclic group acting as the
    multiplicative group of the field of order p^n (transitive on nonzero
    vectors)."""
    q = _power_order(p, n)
    _table_order(q * (q - 1))
    return build_semidirect(p, n, [_primitive_polynomial(p, n)],
                            name=f"(C{p})^{n} : C{p ** n - 1}")


def build_group(spec: dict) -> FiniteGroup:
    """Build a group from a JSON-style spec dict.

    {"family": "P"|"M"|"B"|"G_a1"|"cyclic"|"product"|"semidirect",
     "p": int, "n": int, "epsilon": int, "factors": [...], "matrices": [[..]]}
    Extras: family "P_2" (= P(3)) and "singer" (primitive-polynomial action).
    Raises ValueError on a spec of the wrong shape.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"a group spec must be an object, not {spec!r}")
    for key in ("p", "n", "epsilon", "a"):
        # type(), not isinstance(): JSON true must not pass for 1
        if key in spec and type(spec[key]) is not int:
            raise ValueError(f"group spec field {key!r} must be an integer")
    fam = spec.get("family")
    if fam == "P":
        return build_P(spec["n"], spec["p"])
    if fam == "P_2":
        return build_P(3, spec["p"])
    if fam == "M":
        return build_M(spec["n"], spec["p"])
    if fam == "B":
        return build_B(spec["n"], spec.get("epsilon", 1), spec["p"])
    if fam == "G_a1":
        return build_G_a1(spec["a"] if "a" in spec else spec["n"], spec["p"])
    if fam == "cyclic":
        return build_cyclic(spec["n"])
    if fam == "product":
        if not isinstance(spec["factors"], list):
            raise ValueError("group spec field 'factors' must be a list")
        built = {repr(f): f for f in spec["factors"]}  # each spec once
        built = {key: build_group(f) for key, f in built.items()}
        return build_product([built[repr(f)] for f in spec["factors"]])
    if fam == "semidirect":
        n, mats = spec["n"], spec["matrices"]
        if not (isinstance(mats, list) and all(
                isinstance(M, list) and len(M) == n and all(
                    isinstance(r, list) and len(r) == n
                    and all(type(v) is int for v in r) for r in M)
                for M in mats)):
            raise ValueError("group spec field 'matrices' must be a list "
                             "of n x n integer matrices")
        return build_semidirect(spec["p"], n, mats)
    if fam == "singer":
        return singer_group(spec["p"], spec["n"])
    raise ValueError(f"unknown group family: {fam!r}")


def symmetric_3() -> FiniteGroup:
    """S_3 as C_3 semidirect C_2 (inversion action)."""
    return build_semidirect(3, 1, [[[2]]], name="S3")


# ---------------------------------------------------------------------------
# Subgroup machinery
# ---------------------------------------------------------------------------


def subgroup_closure(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    return Subgroup(G, closure_members(G, gens))


def closure_members(G: FiniteGroup, gens: Iterable[int]) -> frozenset[int]:
    """The member set of the subgroup that gens generate, without the
    closure checks and coset transversal of a Subgroup: the products
    h*g from the identity, which in a finite group already close up."""
    gens = list(gens)
    if any(not (0 <= g < G.order) for g in gens):
        raise ValueError("generator index out of range")
    members = {0}
    found = [0]
    mul = G.mul
    for h in found:  # the loop reads found as it grows
        row = mul[h]
        for g in gens:
            x = row[g]
            if x not in members:
                members.add(x)
                found.append(x)
    return frozenset(members)


def derived_members(G: FiniteGroup) -> frozenset[int]:
    """The member set of the derived subgroup G', as the normal closure N
    of the commutators of the generators: G/N is abelian, as its
    generators commute, so G' <= N <= G'.  The products x*c (c such a
    commutator) and the conjugates x^s (s a generator) from the identity
    reach N, as x*c^w = (x^(w^-1)*c)^w for every word w."""
    mul, inv, gens = G.mul, G.inv, G.generators
    comms = {mul[mul[inv[a]][inv[b]]][mul[a][b]]
             for a in gens for b in gens} - {0}
    members = {0}
    found = [0]
    for x in found:  # the loop reads found as it grows
        row = mul[x]
        for y in [row[c] for c in comms] + [G.conj(s, x) for s in gens]:
            if y not in members:
                members.add(y)
                found.append(y)
    return frozenset(members)


def generating_set(G: FiniteGroup, members: Iterable[int]) -> list[int]:
    """A generating set of the subgroup whose member set is members: each
    member, in index order, that the ones picked before it do not
    generate, until they generate all of members."""
    members = sorted(members)
    gens: list[int] = []
    covered = {0}
    for g in members:
        if g not in covered:
            gens.append(g)
            covered = closure_members(G, gens)
            if len(covered) == len(members):
                break
    return gens


def order_p_subgroup_classes(G: FiniteGroup, p: int) -> list[Subgroup]:
    """One representative per conjugacy class of order-p subgroups,
    ordered by least generator index.  Two such subgroups are conjugate
    exactly when a non-identity member of one is conjugate to one of the
    other, so a class of subgroups is keyed by the least element class of
    its non-identity members."""
    if G.order % p != 0:
        raise ValueError(f"{p} does not divide the group order {G.order}")
    of = G.classes().of
    reps: dict[int, frozenset[int]] = {}  # key -> the first subgroup met
    for g in range(1, G.order):
        if G.element_order(g) == p:
            mem = frozenset(G.power(g, k) for k in range(p))
            reps.setdefault(min(of[h] for h in mem if h), mem)
    # g runs upwards, so reps holds each class's subgroup with the least
    # generator index, in the order of that index
    return [Subgroup(G, mem) for mem in reps.values()]
