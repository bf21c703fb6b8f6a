"""Group-theoretic oracles that only the tests use: the center and derived
subgroup, conjugacy classes by brute force, and class functions stored
per element."""

from cohomolab.char_chern import Cyclotomic
from cohomolab.groups import FiniteGroup, Subgroup, subgroup_closure


def center_and_derived(G: FiniteGroup) -> tuple[Subgroup, Subgroup]:
    mul = G.mul
    center = [z for z in range(G.order)
              if all(mul[z][g] == mul[g][z] for g in range(G.order))]
    comms = {G.commutator(a, b) for a in range(G.order) for b in range(G.order)}
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
