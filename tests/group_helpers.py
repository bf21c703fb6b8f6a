"""Group-theoretic oracles that only the tests use: commutators, the
center and derived subgroup, conjugacy classes by brute force, class
functions stored per element, the table digest and Light's test as first
written, the cache key from its definition, and the character search's
brute-force linear characters and all-pairs induction sources."""

import hashlib
import itertools

from cohomolab.char_chern import Cyclotomic
from cohomolab.groups import (FiniteGroup, Subgroup, closure_members,
                              generating_set, subgroup_closure)


def commutator(G: FiniteGroup, g: int, h: int) -> int:
    """[g, h] = g^-1 h^-1 g h."""
    return G.mul[G.mul[G.mul[G.inv[g]][G.inv[h]]][g]][h]


def is_abelian(G: FiniteGroup) -> bool:
    return all(G.mul[a][b] == G.mul[b][a]
               for a in range(G.order) for b in range(G.order))


def orbit_subgroup_classes(G: FiniteGroup, p: int) -> list[frozenset[int]]:
    """The member sets of one subgroup of order p per conjugacy class, by
    conjugating each subgroup by every element of G; each class is
    represented by its subgroup with the least generator index, and the
    classes come in the order of that index."""
    subs: dict[frozenset, int] = {}  # member set -> least generator index
    for g in range(1, G.order):
        if G.element_order(g) == p:
            mem = frozenset(G.power(g, k) for k in range(p))
            if mem not in subs:
                subs[mem] = g
    unassigned = set(subs)
    classes = []
    while unassigned:
        mem = min(unassigned, key=lambda s: subs[s])
        orbit = {frozenset(G.conj(x, h) for h in mem) for x in range(G.order)}
        unassigned -= orbit
        classes.append(mem)
    return sorted(classes, key=lambda s: subs[s])


def center_and_derived(G: FiniteGroup) -> tuple[Subgroup, Subgroup]:
    mul = G.mul
    center = [z for z in range(G.order)
              if all(mul[z][g] == mul[g][z] for g in range(G.order))]
    comms = {commutator(G, a, b)
             for a in range(G.order) for b in range(G.order)}
    derived = subgroup_closure(G, comms)
    return Subgroup(G, center), derived


def brute_classes(G: FiniteGroup) -> list[frozenset[int]]:
    """The conjugacy classes {x^-1 g x : x in G}, ordered by least element."""
    classes = {frozenset(G.conj(x, g) for x in range(G.order))
               for g in range(G.order)}
    return sorted(classes, key=min)


def induce_linear_elementwise(H: Subgroup, exponents: list[int],
                              N: int) -> list[Cyclotomic]:
    """Ind_H^G(lambda), lambda(h) = zeta_N^e(h), at every element of G."""
    G = H.parent
    values = []
    for g in range(G.order):
        acc = Cyclotomic.zero(N)
        for t in H.transversal:
            x = G.mul[G.inv[t]][G.mul[g][t]]
            if x in H.index_of:
                acc = acc + Cyclotomic.root(N, exponents[H.index_of[x]])
        values.append(acc)
    return values


def per_element(chi) -> list[Cyclotomic]:
    """The values of a ClassFunction at every element of its group."""
    return [chi.values[k] for k in chi.group.classes().of]


def inner_elementwise(a: list[Cyclotomic], b: list[Cyclotomic],
                      G: FiniteGroup) -> int:
    """(1/|G|) sum_g a(g) b(g^-1), one Cyclotomic per term."""
    acc = Cyclotomic.zero(a[0].N)
    for g in range(G.order):
        acc = acc + a[g] * b[G.inv[g]]
    return acc.divide_exact(G.order)


def digest_oracle(mul: list[list[int]]) -> str:
    """FiniteGroup.digest as first written: str(order), then each row's
    entries joined by commas, fed to SHA-256 row by row."""
    h = hashlib.sha256()
    h.update(str(len(mul)).encode())
    for row in mul:
        h.update(",".join(map(str, row)).encode())
    return h.hexdigest()[:16]


def key_oracle(mul: list[list[int]], generators, width=None) -> str:
    """FiniteGroup.digest from its definition: |G| as 2 little-endian
    bytes, then each generator's column x -> x*s entry by entry, each in
    `width` little-endian bytes (1 when |G| <= 256, else 2)."""
    order = len(mul)
    if width is None:
        width = 1 if order <= 256 else 2
    data = bytearray(order.to_bytes(2, "little"))
    for s in generators:
        for row in mul:
            data += row[s].to_bytes(width, "little")
    return hashlib.sha256(data).hexdigest()[:16]


def light_oracle(mul: list[list[int]], generators) -> bool:
    """Light's test as first written: (x*s)*y = x*(s*y) for every x, y and
    generator s, one list comparison per (s, x)."""
    for s in generators:
        row_s = mul[s]
        for row_x in mul:
            if mul[row_x[s]] != list(map(row_x.__getitem__, row_s)):
                return False
    return True


def closure_oracle(mats, p: int, k: int) -> list:
    """matrix_group_closure as first written: the identity, then each new
    product A*M, entry by entry, in depth-first order."""
    def mat_mul(A, B):
        return tuple(tuple(sum(A[i][t] * B[t][j] for t in range(k)) % p
                           for j in range(k)) for i in range(k))

    ident = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    gens = [tuple(tuple(x % p for x in row) for row in M) for M in mats]
    group, stack = {ident: None}, [ident]
    while stack:
        A = stack.pop()
        for M in gens:
            B = mat_mul(A, M)
            if B not in group:
                group[B] = None
                stack.append(B)
    return list(group)


def linear_characters_oracle(H: FiniteGroup, N: int) -> list[list[int]]:
    """All homomorphisms H -> Z/N as exponent vectors, as first written:
    every tuple of images of a greedy generating set of H, spread by BFS
    with conflicts rejected, then checked on all |H|^2 products."""
    gens = generating_set(H, range(H.order))
    if not gens:
        return [[0]]
    orders = [H.element_order(g) for g in gens]
    out = []
    for choice in itertools.product(*[range(o) for o in orders]):
        exps = {0: 0}
        for g, t, o in zip(gens, choice, orders):
            exps[g] = (t * (N // o)) % N
        frontier, ok = list(exps), True
        while frontier and ok:
            nxt = []
            for a in frontier:
                for g in gens:
                    b, v = H.mul[a][g], (exps[a] + exps[g]) % N
                    if b not in exps:
                        exps[b] = v
                        nxt.append(b)
                    elif exps[b] != v:
                        ok = False
            frontier = nxt
        if ok and len(exps) == H.order and all(
                (exps[a] + exps[b] - exps[H.mul[a][b]]) % N == 0
                for a in range(H.order) for b in range(H.order)):
            vec = [exps[h] for h in range(H.order)]
            if vec not in out:
                out.append(vec)
    return out


def all_pairs_sources(G: FiniteGroup) -> list[Subgroup]:
    """The induction sources as first written: G and the closures of every
    element and of every pair of cyclic subgroups' least generators,
    deduplicated, largest first."""
    found = {closure_members(G, G.generators): None}
    reps = []
    for g in range(1, G.order):
        key = closure_members(G, [g])
        if key not in found:
            found[key] = None
            reps.append(g)
    for a, b in itertools.combinations(reps, 2):
        found.setdefault(closure_members(G, [a, b]), None)
    return sorted((Subgroup(G, key) for key in found), key=lambda s: -s.order)


def conjugate_member_sets(G: FiniteGroup, members) -> set[frozenset[int]]:
    """The member sets of the conjugates of a subgroup."""
    return {frozenset(G.conj(x, h) for h in members) for x in range(G.order)}
