"""
Exact model of the extended affine Weyl group of GL_n over a set of f
embeddings, with alcove coordinates, length, Bruhat and up-arrow orders,
and Kottwitz-Rapoport admissible sets.

Conventions (all 0-based):
  * X*(T) = Z^n; a Weight is an f x n integer matrix (row j = embedding j).
  * roots alpha_{ik} = e_i - e_k are stored as pairs (i, k); positive
    means i < k; <lam, alpha_{ik}^vee> = lam_i - lam_k.
  * a permutation w is a one-line tuple with w(i) = w[i]; it acts on
    weights by w(x)_{w(i)} = x_i and on roots by w(alpha_{ik}) =
    alpha_{w(i) w(k)}.
  * an extended-affine element t_nu w acts by x -> nu + w(x); the group
    law is (t_nu w)(t_mu u) = t_{nu + w(mu)} (w u).

Single-embedding elements are plain pairs aff = (nu, w) of tuples; the
public f-tuple types wrap these.  The dominant base alcove is
{x_0 > x_1 > ... > x_{n-1} > x_0 - 1}; m_{t_nu w, alpha} =
<nu, alpha^vee> - [w^{-1}(alpha) < 0] is the floor of <w~(x), alpha^vee>
on the base alcove, and length is the sum of |m| over positive roots.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

Perm = tuple[int, ...]
Vec = tuple[int, ...]
Aff = tuple[Vec, Perm]  # (nu, w)

MAX_ADMISSIBLE_LENGTH = 24


class DimensionMismatchError(ValueError):
    pass


# -- permutations ------------------------------------------------------------


def perm_identity(n: int) -> Perm:
    return tuple(range(n))


def perm_mul(w: Perm, u: Perm) -> Perm:
    """(w u)(i) = w(u(i))."""
    return tuple(w[u[i]] for i in range(len(w)))


def perm_inv(w: Perm) -> Perm:
    out = [0] * len(w)
    for i, wi in enumerate(w):
        out[wi] = i
    return tuple(out)


def perm_act_vec(w: Perm, x: Vec) -> Vec:
    """w(x)_{w(i)} = x_i."""
    out = [0] * len(w)
    for i, wi in enumerate(w):
        out[wi] = x[i]
    return tuple(out)


def perm_w0(n: int) -> Perm:
    return tuple(range(n - 1, -1, -1))


def transposition(n: int, i: int, k: int) -> Perm:
    out = list(range(n))
    out[i], out[k] = out[k], out[i]
    return tuple(out)


def ncycle(n: int) -> Perm:
    """The n-cycle g with g(i) = i+1 mod n, generator of the subgroup S."""
    return tuple((i + 1) % n for i in range(n))


def all_perms(n: int) -> list[Perm]:
    return [tuple(p) for p in itertools.permutations(range(n))]


# -- roots ---------------------------------------------------------------------


def positive_roots(n: int) -> list[tuple[int, int]]:
    return [(i, k) for i in range(n) for k in range(i + 1, n) if i < k]


def negative_roots(n: int) -> list[tuple[int, int]]:
    return [(k, i) for (i, k) in positive_roots(n)]


def all_roots(n: int) -> list[tuple[int, int]]:
    return positive_roots(n) + negative_roots(n)


def simple_roots(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def pairing(x: Vec, root: tuple[int, int]) -> int:
    i, k = root
    return x[i] - x[k]


def root_vec(n: int, root: tuple[int, int]) -> Vec:
    i, k = root
    return tuple(1 if m == i else (-1 if m == k else 0) for m in range(n))


def perm_act_root(w: Perm, root: tuple[int, int]) -> tuple[int, int]:
    i, k = root
    return (w[i], w[k])


def root_is_negative(root: tuple[int, int]) -> bool:
    return root[0] > root[1]


def eta_weight(n: int) -> Vec:
    return tuple(range(n - 1, -1, -1))


# -- single-embedding extended affine elements ----------------------------------


def aff_identity(n: int) -> Aff:
    return ((0,) * n, perm_identity(n))


def aff_translation(nu: Vec) -> Aff:
    return (tuple(nu), perm_identity(len(nu)))


def aff_from_perm(w: Perm) -> Aff:
    return ((0,) * len(w), tuple(w))


def aff_mul(x: Aff, y: Aff) -> Aff:
    """
    (t_nu w)(t_mu u) = t_{nu + w(mu)} (w u).

    >>> aff_mul(((1, 0), (1, 0)), ((1, 0), (1, 0)))
    ((1, 1), (0, 1))
    """
    nu, w = x
    mu, u = y
    wmu = perm_act_vec(w, mu)
    return (tuple(a + b for a, b in zip(nu, wmu)), perm_mul(w, u))


def aff_inv(x: Aff) -> Aff:
    nu, w = x
    wi = perm_inv(w)
    return (tuple(-a for a in perm_act_vec(wi, nu)), wi)


def aff_star(x: Aff) -> Aff:
    """t_nu w -> w^{-1} t_nu = t_{w^{-1}(nu)} w^{-1}."""
    nu, w = x
    wi = perm_inv(w)
    return (perm_act_vec(wi, nu), wi)


def aff_m(x: Aff, root: tuple[int, int]) -> int:
    """m_{x,alpha} = floor(<x(pt), alpha^vee>) for pt in the base alcove;
    valid for roots of either sign."""
    nu, w = x
    m = pairing(nu, root)
    if root_is_negative(perm_act_root(perm_inv(w), root)):
        m -= 1
    return m


def aff_length(x: Aff) -> int:
    """
    l(w~) as the sum of |m_{w~, alpha}| over the positive roots.

    >>> aff_length(aff_translation((2, 1, 0)))
    4
    >>> aff_length(aff_from_perm((2, 1, 0)))
    3
    """
    n = len(x[0])
    return sum(abs(aff_m(x, a)) for a in positive_roots(n))


def aff_is_restricted(x: Aff) -> bool:
    return all(aff_m(x, a) == 0 for a in simple_roots(len(x[0])))


def aff_is_regular(x: Aff) -> bool:
    return all(aff_m(x, a) != 0 for a in simple_roots(len(x[0])))


def aff_omega_degree(x: Aff) -> int:
    return sum(x[0])


def aff_profile_key(x: Aff) -> tuple[int, ...]:
    """The alcove of x, as the tuple of m-values over positive roots; two
    elements share an alcove iff they differ by the stabilizer of the base
    alcove, iff these keys agree."""
    n = len(x[0])
    return tuple(aff_m(x, a) for a in positive_roots(n))


def delta1(n: int) -> Aff:
    """Generator of the base-alcove stabilizer: t_{e_0} * (n-cycle)."""
    e0 = tuple(1 if i == 0 else 0 for i in range(n))
    return (e0, ncycle(n))


@lru_cache(maxsize=None)
def _delta1_pow(n: int, k: int) -> Aff:
    if k == 0:
        return aff_identity(n)
    if k > 0:
        return aff_mul(_delta1_pow(n, k - 1), delta1(n))
    return aff_inv(_delta1_pow(n, -k))


def aff_wa_part(x: Aff) -> Aff:
    """x * delta1^{-deg(x)}, the W_a-component for the right quotient."""
    n = len(x[0])
    return aff_mul(x, _delta1_pow(n, -aff_omega_degree(x)))


def nu_w(w: Perm) -> Vec:
    """Translation part of the restricted lift w^diamond = t_{nu_w} w,
    normalized so the last coordinate vanishes.

    >>> nu_w((1, 0))
    (1, 0)
    >>> nu_w((0, 2, 1))
    (1, 1, 0)
    """
    n = len(w)
    wi = perm_inv(w)
    out = [0] * n
    for i in range(n - 2, -1, -1):
        step = 1 if root_is_negative(perm_act_root(wi, (i, i + 1))) else 0
        out[i] = out[i + 1] + step
    return tuple(out)


def restricted_lift_perm(w: Perm) -> Aff:
    return (nu_w(w), tuple(w))


def affine_simple_reflections(n: int) -> list[Aff]:
    """s_0 = t_theta s_theta (theta the highest root), then s_1..s_{n-1}."""
    theta = root_vec(n, (0, n - 1))
    s_theta = transposition(n, 0, n - 1)
    out = [(theta, s_theta)]
    for i in range(n - 1):
        out.append(aff_from_perm(transposition(n, i, i + 1)))
    return out


# -- reduced words and Bruhat order (on W_a) -------------------------------------


class _WordTable:
    """BFS table from the identity of W_a over the affine simple
    reflections, grown on demand; stores one reduced word per element.

    Growth runs under a lock, and `radius` is bumped only after a layer is
    complete, so a reader that sees radius >= l finds every element of
    length <= l without taking the lock."""

    def __init__(self, n: int):
        self.n = n
        self.gens = affine_simple_reflections(n)
        self.words: dict[Aff, tuple[int, ...]] = {aff_identity(n): ()}
        self.frontier: list[Aff] = [aff_identity(n)]
        self.radius = 0
        self._lock = threading.Lock()

    def grow_to(self, radius: int) -> None:
        if self.radius >= radius:
            return
        with self._lock:
            while self.radius < radius:
                nxt = []
                for x in self.frontier:
                    wx = self.words[x]
                    for gi, g in enumerate(self.gens):
                        y = aff_mul(x, g)
                        if y not in self.words:
                            self.words[y] = wx + (gi,)
                            nxt.append(y)
                self.frontier = nxt
                self.radius += 1
                if not nxt:
                    break

    def word(self, x: Aff) -> tuple[int, ...]:
        l = aff_length(x)
        self.grow_to(l)
        try:
            return self.words[x]
        except KeyError:
            raise ValueError(f"element of length {l} not reached by BFS: not in W_a?") from None


@lru_cache(maxsize=None)
def _word_table(n: int) -> _WordTable:
    return _WordTable(n)


def reduced_word(x: Aff) -> tuple[int, ...]:
    """One reduced word (over s_0..s_{n-1}) for an element of W_a."""
    if aff_omega_degree(x) != 0:
        raise ValueError("reduced words exist only for W_a elements (degree 0)")
    return _word_table(len(x[0])).word(x)


def bfs_length(x: Aff) -> int:
    """Coxeter length by BFS; independent oracle for aff_length."""
    return len(reduced_word(x))


def random_reduced_word(x: Aff, rng) -> tuple[int, ...]:
    """A uniformly-randomized (not uniformly distributed) reduced word,
    built by random descent."""
    n = len(x[0])
    gens = affine_simple_reflections(n)
    word: list[int] = []
    cur = x
    l = aff_length(cur)
    while l > 0:
        descents = [i for i, g in enumerate(gens) if aff_length(aff_mul(cur, g)) < l]
        gi = rng.choice(descents)
        word.append(gi)
        cur = aff_mul(cur, gens[gi])
        l -= 1
    word.reverse()
    return tuple(word)


def _subword_test(x: Aff, word: tuple[int, ...]) -> bool:
    """x <= (product of word) via the lifting property, scanning the fixed
    reduced word right to left."""
    n = len(x[0])
    gens = affine_simple_reflections(n)
    cur = x
    l = aff_length(cur)
    for gi in reversed(word):
        if l == 0:
            return True
        y = aff_mul(cur, gens[gi])
        ly = aff_length(y)
        if ly < l:
            cur, l = y, ly
    return l == 0


def bruhat_leq_wa(x: Aff, y: Aff, word: tuple[int, ...] | None = None) -> bool:
    lx, ly = aff_length(x), aff_length(y)
    if lx > ly:
        return False
    if word is None:
        word = reduced_word(y)
    return _subword_test(x, word)


def bruhat_leq_aff(x: Aff, y: Aff) -> bool:
    """Bruhat order on the extended group: equal stabilizer components
    compare through their W_a parts, unequal ones are incomparable."""
    if aff_omega_degree(x) != aff_omega_degree(y):
        return False
    return bruhat_leq_wa(aff_wa_part(x), aff_wa_part(y))


def lower_interval_wa(y: Aff) -> set[Aff]:
    """All z <= y in W_a: products of subwords of one reduced word."""
    n = len(y[0])
    gens = affine_simple_reflections(n)
    cur: set[Aff] = {aff_identity(n)}
    for gi in reduced_word(y):
        cur |= {aff_mul(z, gens[gi]) for z in cur}
    return cur


# -- up-arrow order on alcoves ----------------------------------------------------


def base_alcove_point(n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(n - 1 - i, n) for i in range(n))


def _reflect_up(x: Aff, root: tuple[int, int], m: int) -> Aff:
    """s_{alpha,m} x (left action on alcoves)."""
    n = len(x[0])
    i, k = root
    refl = (tuple(m if t == i else (-m if t == k else 0) for t in range(n)), transposition(n, i, k))
    return aff_mul(refl, x)


def up_arrow_step_aff(a: Aff, b: Aff) -> bool:
    """b = s_{beta,m} a as alcoves for one affine reflection, with a on the
    side <x,beta^vee> < m of the wall H_{beta,m}: one covering move of
    the up-arrow order (Jantzen, Representations of Algebraic Groups,
    II.6), in closed form.

    The reflection sends the alcove with m-value m_a at beta to the one
    with 2m - m_a - 1, so the only candidate wall per positive root beta
    is m = (m_a + m_b + 1)/2, and it exists only when m_b > m_a and
    m_a + m_b is odd: at most n(n-1)/2 candidates, no search.

    Sound for up_arrow_leq_aff: a single move is an up-arrow chain of
    length 1, and that search tests the target key before its box bound,
    so True here implies True there.  The converse is not proved; it
    holds on every length-difference-one pair u^d, w^d with
    u = s_{alpha_{0,n-1}} w at n = 3, 4, 5 (tests/test_serre.py)."""
    n = len(a[0])
    pa, pb = aff_profile_key(a), aff_profile_key(b)
    for r, ma, mb in zip(positive_roots(n), pa, pb):
        if mb > ma and (ma + mb) % 2 and aff_profile_key(_reflect_up(a, r, (ma + mb + 1) // 2)) == pb:
            return True
    return False


def up_arrow_leq_aff(a: Aff, b: Aff, slack: int = 2) -> bool:
    """a up-arrow b as alcoves: reflexive-transitive closure of the
    covering move A -> s_{alpha,m} A for A on the side <x,alpha^vee> < m,
    searched inside a bounding box around the two profiles (slack extra
    layers per root direction)."""
    n = len(a[0])
    pos = positive_roots(n)
    pa, pb = aff_profile_key(a), aff_profile_key(b)
    if pa == pb:
        return True
    lo = {r: min(x, y) - slack for r, x, y in zip(pos, pa, pb)}
    hi = {r: max(x, y) + slack for r, x, y in zip(pos, pa, pb)}
    target = pb
    seen = {pa}
    frontier = [a]
    while frontier:
        nxt = []
        for x in frontier:
            for ri, r in enumerate(pos):
                mx = aff_m(x, r)
                for m in range(mx + 1, hi[r] + 2):
                    y = _reflect_up(x, r, m)
                    key = aff_profile_key(y)
                    if key == target:
                        return True
                    if key in seen:
                        continue
                    if all(lo[rr] <= key[idx] <= hi[rr] for idx, rr in enumerate(pos)):
                        seen.add(key)
                        nxt.append(y)
        frontier = nxt
    return False


# -- public f-tuple types -----------------------------------------------------------


@dataclass(frozen=True)
class Weight:
    """f x n integer matrix; row j is the component at embedding j."""

    rows: tuple[Vec, ...]

    def __post_init__(self):
        if not self.rows:
            raise DimensionMismatchError("empty weight")
        n = len(self.rows[0])
        if any(len(r) != n for r in self.rows):
            raise DimensionMismatchError("ragged weight rows")
        object.__setattr__(self, "rows", tuple(tuple(int(c) for c in r) for r in self.rows))

    @property
    def f(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    @staticmethod
    def zero(n: int, f: int) -> "Weight":
        return Weight(tuple((0,) * n for _ in range(f)))

    @staticmethod
    def of(rows) -> "Weight":
        return Weight(tuple(tuple(r) for r in rows))

    @staticmethod
    def eta(n: int, f: int) -> "Weight":
        return Weight(tuple(eta_weight(n) for _ in range(f)))

    def pairing(self, j: int, root: tuple[int, int]) -> int:
        return pairing(self.rows[j], root)

    def add(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)))

    def sub(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(tuple(tuple(a - b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)))

    def scale(self, c: int) -> "Weight":
        return Weight(tuple(tuple(c * a for a in r) for r in self.rows))

    def is_dominant(self) -> bool:
        return all(self.pairing(j, a) >= 0 for j in range(self.f) for a in simple_roots(self.n))

    def _check(self, other: "Weight") -> None:
        if (self.n, self.f) != (other.n, other.f):
            raise DimensionMismatchError(f"weight shape {(other.n, other.f)} != {(self.n, self.f)}")

    def to_json(self):
        return [list(r) for r in self.rows]


@dataclass(frozen=True)
class PermTuple:
    """f permutations of {0..n-1}, one-line notation."""

    perms: tuple[Perm, ...]

    def __post_init__(self):
        if not self.perms:
            raise DimensionMismatchError("empty permutation tuple")
        n = len(self.perms[0])
        for p in self.perms:
            if sorted(p) != list(range(n)):
                raise ValueError(f"not a permutation of 0..{n-1}: {p}")
        object.__setattr__(self, "perms", tuple(tuple(p) for p in self.perms))

    @property
    def f(self) -> int:
        return len(self.perms)

    @property
    def n(self) -> int:
        return len(self.perms[0])

    @staticmethod
    def identity(n: int, f: int) -> "PermTuple":
        return PermTuple(tuple(perm_identity(n) for _ in range(f)))

    @staticmethod
    def of(perms) -> "PermTuple":
        return PermTuple(tuple(tuple(p) for p in perms))

    def mul(self, other: "PermTuple") -> "PermTuple":
        return PermTuple(tuple(perm_mul(a, b) for a, b in zip(self.perms, other.perms)))

    def to_json(self):
        return [list(p) for p in self.perms]


@dataclass(frozen=True)
class ExtAffine:
    """t_nu w componentwise over the embeddings."""

    nu: Weight
    w: PermTuple

    def __post_init__(self):
        if (self.nu.n, self.nu.f) != (self.w.n, self.w.f):
            raise DimensionMismatchError("translation and permutation shapes differ")

    @property
    def f(self) -> int:
        return self.nu.f

    @property
    def n(self) -> int:
        return self.nu.n

    @staticmethod
    def identity(n: int, f: int) -> "ExtAffine":
        return ExtAffine(Weight.zero(n, f), PermTuple.identity(n, f))

    @staticmethod
    def translation(w: Weight) -> "ExtAffine":
        return ExtAffine(w, PermTuple.identity(w.n, w.f))

    @staticmethod
    def from_components(affs: list[Aff]) -> "ExtAffine":
        return ExtAffine(Weight.of([a[0] for a in affs]), PermTuple.of([a[1] for a in affs]))

    def component(self, j: int) -> Aff:
        return (self.nu.rows[j], self.w.perms[j])

    def components(self) -> list[Aff]:
        return [self.component(j) for j in range(self.f)]

    def to_json(self):
        return {"nu": self.nu.to_json(), "w": self.w.to_json()}


class Colength(Enum):
    EXTREMAL = "extremal"
    COLENGTH_ONE = "colength_one"
    DEEPER = "deeper"


@dataclass(frozen=True)
class AlcoveProfile:
    """m-values per (embedding, positive root) plus restricted/regular flags."""

    n: int
    f: int
    m: dict[tuple[int, tuple[int, int]], int]
    restricted: tuple[bool, ...]
    regular: tuple[bool, ...]


# -- spec operations on the f-tuple types -----------------------------------------


def compose(x: ExtAffine, y: ExtAffine) -> ExtAffine:
    if (x.n, x.f) != (y.n, y.f):
        raise DimensionMismatchError("composing elements of different shapes")
    return ExtAffine.from_components([aff_mul(a, b) for a, b in zip(x.components(), y.components())])


def inverse(x: ExtAffine) -> ExtAffine:
    return ExtAffine.from_components([aff_inv(a) for a in x.components()])


def star(x: ExtAffine) -> ExtAffine:
    return ExtAffine.from_components([aff_star(a) for a in x.components()])


def pi_twist(x: ExtAffine, k: int = 1) -> ExtAffine:
    """pi(x)_j = x_{j+1} (cyclic shift of embedding components), iterated k
    times; negative k gives the inverse twist."""
    f = x.f
    comps = x.components()
    return ExtAffine.from_components([comps[(j + k) % f] for j in range(f)])


def alcove_profile(x: ExtAffine) -> AlcoveProfile:
    n, f = x.n, x.f
    m = {}
    restricted = []
    regular = []
    for j in range(f):
        a = x.component(j)
        for r in positive_roots(n):
            m[(j, r)] = aff_m(a, r)
        restricted.append(aff_is_restricted(a))
        regular.append(aff_is_regular(a))
    return AlcoveProfile(n, f, m, tuple(restricted), tuple(regular))


def length(x: ExtAffine) -> int:
    return sum(aff_length(a) for a in x.components())


def bruhat_leq(x: ExtAffine, y: ExtAffine) -> bool:
    if (x.n, x.f) != (y.n, y.f):
        raise DimensionMismatchError("comparing elements of different shapes")
    return all(bruhat_leq_aff(a, b) for a, b in zip(x.components(), y.components()))


def up_arrow_leq(a: ExtAffine, b: ExtAffine) -> bool:
    if (a.n, a.f) != (b.n, b.f):
        raise DimensionMismatchError("comparing elements of different shapes")
    return all(up_arrow_leq_aff(x, y) for x, y in zip(a.components(), b.components()))


def dot_action(x: ExtAffine, lam: Weight, p: int) -> Weight:
    """t_nu w . lam = p nu + w(lam + eta) - eta, componentwise."""
    if (x.n, x.f) != (lam.n, lam.f):
        raise DimensionMismatchError("dot action shape mismatch")
    eta = eta_weight(lam.n)
    rows = []
    for j in range(lam.f):
        nu, w = x.component(j)
        shifted = tuple(a + e for a, e in zip(lam.rows[j], eta))
        moved = perm_act_vec(w, shifted)
        rows.append(tuple(p * c + m - e for c, m, e in zip(nu, moved, eta)))
    return Weight.of(rows)


def restricted_lift(w: PermTuple) -> ExtAffine:
    return ExtAffine.from_components([restricted_lift_perm(p) for p in w.perms])


def is_restricted(x: ExtAffine) -> bool:
    return all(aff_is_restricted(a) for a in x.components())


def admissible_set(lam: Weight) -> list[ExtAffine]:
    """Adm(lam) = union over w in W^J of the lower Bruhat interval below
    t_{w(lam)}, in a canonical sort order."""
    if not lam.is_dominant():
        raise ValueError("admissible sets are defined for dominant lambda")
    n, f = lam.n, lam.f
    total_len = length(ExtAffine.translation(lam))
    if total_len > MAX_ADMISSIBLE_LENGTH:
        raise ValueError(f"l(t_lambda) = {total_len} exceeds the enumeration bound {MAX_ADMISSIBLE_LENGTH}")
    per_embedding: list[list[Aff]] = []
    for j in range(f):
        row = lam.rows[j]
        deg = sum(row)
        elems: set[Aff] = set()
        for w in all_perms(n):
            t = aff_translation(perm_act_vec(w, row))
            elems |= {aff_mul(z, _delta1_pow(n, deg)) for z in lower_interval_wa(aff_wa_part(t))}
        per_embedding.append(sorted(elems))
    out = [ExtAffine.from_components(list(combo)) for combo in itertools.product(*per_embedding)]
    out.sort(key=lambda x: (length(x), x.nu.rows, x.w.perms))
    return out


def admissible_contains(lam: Weight, x: ExtAffine) -> bool:
    if (x.n, x.f) != (lam.n, lam.f):
        raise DimensionMismatchError("shape mismatch")
    for j in range(x.f):
        row = lam.rows[j]
        a = x.component(j)
        if not any(bruhat_leq_aff(a, aff_translation(perm_act_vec(w, row))) for w in all_perms(x.n)):
            return False
    return True


def admissible_set_dual(lam: Weight) -> list[ExtAffine]:
    """Adm^vee(lam): the image of the admissible set under the star map."""
    return [star(x) for x in admissible_set(lam)]


def admissible_set_regular(lam: Weight) -> list[ExtAffine]:
    """The regular members of Adm(lam) (no alcove touching a 0-wall)."""
    return [x for x in admissible_set(lam) if all(alcove_profile(x).regular)]


def classify_colength_component(a: Aff, lam_row: Vec) -> Colength:
    """Classify one embedding component inside Adm(lam_row); star-images
    are classified through their un-starred partner."""
    n = len(lam_row)
    t_len = aff_length(aff_translation(lam_row))

    def direct(b: Aff) -> Colength | None:
        if any(b == aff_translation(perm_act_vec(w, lam_row)) for w in all_perms(n)):
            return Colength.EXTREMAL
        if not any(bruhat_leq_aff(b, aff_translation(perm_act_vec(w, lam_row))) for w in all_perms(n)):
            return None
        if aff_length(b) == t_len - 1:
            return Colength.COLENGTH_ONE
        return Colength.DEEPER

    res = direct(a)
    if res is None:
        res = direct(aff_star(a))
    if res is None:
        raise ValueError("element is not admissible (nor is its star image)")
    return res


def classify_colength(x: ExtAffine, lam: Weight) -> tuple[Colength, ...]:
    if (x.n, x.f) != (lam.n, lam.f):
        raise DimensionMismatchError("shape mismatch")
    return tuple(classify_colength_component(a, row) for a, row in zip(x.components(), lam.rows))


def restricted_alcove_classes(n: int) -> list[tuple[int, ...]]:
    """Distinct restricted alcoves as profile keys; there are (n-1)! of
    them, in bijection with W/S."""
    seen = {}
    for w in all_perms(n):
        key = aff_profile_key(restricted_lift_perm(w))
        seen.setdefault(key, w)
    return sorted(seen)
