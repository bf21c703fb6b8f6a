"""Tuple-keyed bar-cochain operations, used by the tests as oracles for
the cell-index code in bar_cohomology: each takes cochains, reads their
tuple view `data`, and returns {n-tuple of element indices: value} with
no zero value kept (reduced mod p when p is set).  The class-question
oracles answer from the residue of CoboundarySolver.reduce."""

from itertools import product
from typing import Optional

from cohomolab import bar_cohomology as bc
from cohomolab.exact_linalg import Echelon
from cohomolab.groups import Subgroup


def _clean(out: dict, p: Optional[int]) -> dict:
    if p is None:
        return {k: v for k, v in out.items() if v}
    return {k: v % p for k, v in out.items() if v % p}


def coboundary_ref(c: bc.Cochain) -> dict:
    """delta c, face by face on tuples."""
    G, n = c.group, c.degree
    mul, inv, m = G.mul, G.inv, G.order
    out: dict[tuple, int] = {}
    last = -1 if (n + 1) % 2 else 1
    for key, v in c.data.items():
        for g in range(1, m):  # front face
            out[(g,) + key] = out.get((g,) + key, 0) + v
        for i in range(1, n + 1):  # entry i - 1 split as a*b
            s = -v if i % 2 else v
            for a in range(1, m):
                b = mul[inv[a]][key[i - 1]]
                if b:
                    k = key[:i - 1] + (a, b) + key[i:]
                    out[k] = out.get(k, 0) + s
        for g in range(1, m):  # back face
            out[key + (g,)] = out.get(key + (g,), 0) + last * v
    return _clean(out, c.p)


def cup_ref(u: bc.Cochain, v: bc.Cochain) -> dict:
    out: dict[tuple, int] = {}
    for ku, a in u.data.items():
        for kv, b in v.data.items():
            out[ku + kv] = out.get(ku + kv, 0) + a * b
    return _clean(out, u.p)


def cup1_ref(u: bc.Cochain, v: bc.Cochain) -> dict:
    """u cup1 v: a key of u whose entry i is the product of a key of v's
    entries, with that entry replaced by v's key."""
    mul = u.group.mul
    out: dict[tuple, int] = {}
    pdeg, qdeg = u.degree, v.degree
    if pdeg == 0 or qdeg == 0:
        return {}
    for ku, a in u.data.items():
        for kv, b in v.data.items():
            prod = 0
            for g in kv:
                prod = mul[prod][g]
            for i in range(pdeg):
                if ku[i] == prod:
                    key = ku[:i] + kv + ku[i + 1:]
                    s = bc._cup1_sign(pdeg, qdeg, i)
                    out[key] = out.get(key, 0) + s * a * b
    return _clean(out, u.p)


def restrict_ref(c: bc.Cochain, H: Subgroup) -> dict:
    idx = H.index_of
    return {tuple(idx[g] for g in key): v for key, v in c.data.items()
            if all(g in idx for g in key)}


def transfer_ref(c: bc.Cochain, H: Subgroup) -> dict:
    """Sum over the transversal t of c(h_1, .., h_n), where reading the
    key from its last entry g_n, g*t = t'*h moves t to t'; a key whose
    walk meets h = 1 contributes nothing."""
    G = H.parent
    mul, inv = G.mul, G.inv
    trans = H.transversal
    coset = {mul[t][h]: j for j, t in enumerate(trans) for h in H.members}
    data = c.data
    out = {}
    for key in product(range(1, G.order), repeat=c.degree):
        total = 0
        for j in range(len(trans)):
            hkey = []
            for g in reversed(key):
                gt = mul[g][trans[j]]
                j = coset[gt]
                hkey.append(H.index_of[mul[inv[trans[j]]][gt]])
            if 0 not in hkey:
                total += data.get(tuple(reversed(hkey)), 0)
        out[key] = total
    return _clean(out, c.p)


def is_coboundary_ref(c: bc.Cochain) -> bool:
    if c.degree == 0:
        return c.is_zero()
    return bc.CoboundarySolver(c.group, c.degree - 1, c.p).reduce(c).is_zero()


def independent_classes_ref(cands: list, G, n: int,
                            p: Optional[int]) -> list:
    """The candidates whose residues modulo the coboundaries raise the
    rank of the residues before them."""
    span = Echelon(p=p)
    if n == 0:
        return [c for c in cands if span.add(c.cells)]
    sol = bc.CoboundarySolver(G, n - 1, p)
    return [c for c in cands if span.add(sol.reduce(c).cells)]
