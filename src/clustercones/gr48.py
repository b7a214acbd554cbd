"""The check behind `grassmannian.verify_gr48_table`: the 4x8 table's
symmetry images, their difference monomials, and the kernel that
evaluates them at totally positive points.

The kernel ranks the monomials in floats and decides in integers: a
monomial whose float value is provably below the running maximum is
skipped, and every other one is compared exactly. The float error bound,
CPython's correctly rounded int division and a margin kappa above both
prove each skip (see `_gr48_kernel`), and points wide enough to overflow
a float are refused, so the largest value is the one exact arithmetic
alone finds, pair for pair.

`verify_gr48_table` imports this module on its first call, so a run that
never checks the 4x8 table never compiles it.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import random
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .grassmannian import load_gr48_ratios

__all__ = ["Gr48Report", "table_report"]


def _gr48_symmetries() -> list[dict[tuple[int, ...], tuple[int, ...]]]:
    """The 32 symmetries of the column 4-sets: a rotation j -> j + r
    (mod 8), then optionally the reflection j -> 9 - j, then optionally
    the complement J -> {1..8} - J."""
    cols = set(range(1, 9))
    Js = list(itertools.combinations(range(1, 9), 4))
    maps = []
    for r, reflect, complement in itertools.product(range(8), (False, True), (False, True)):
        perm = {j: (j - 1 + r) % 8 + 1 for j in cols}
        if reflect:
            perm = {j: 9 - c for j, c in perm.items()}
        g = {}
        for J in Js:
            image = {perm[j] for j in J}
            g[J] = tuple(sorted(cols - image if complement else image))
        maps.append(g)
    return maps


def _gr48_images(ratios) -> list[dict[tuple[int, ...], int]]:
    group = _gr48_symmetries()
    images = {}
    for ratio in ratios:
        for g in group:
            img: dict[tuple[int, ...], int] = {}
            for J, e in ratio.items():
                gJ = g[J]
                img[gJ] = img.get(gJ, 0) + e
            key = tuple(sorted(img.items()))
            images.setdefault(key, dict(img))
    return list(images.values())


def _integer_points(n: int, count: int, seed: int) -> Iterator[list[int]]:
    """Yield `count` increasing parameter lists t_1 < ... < t_n: t_1 in
    1..4, then steps in 1..9, so every 4x8 Vandermonde minor is a positive
    integer. The points are made one at a time, so a long run holds one.

    Each value is drawn as `random.Random(seed).randint` draws it, by
    rejection on `getrandbits`: 3 bits until below 4, or 4 bits until
    below 9, plus 1. The integers are those of a `randint` loop that
    draws t_1 and then n steps per point (the last step unused), so the
    points, and the digests of the JSON built on them, stay as they were.
    """
    bits = random.Random(seed).getrandbits
    for _ in range(count):
        t = bits(3)
        while t > 3:
            t = bits(3)
        t += 1
        ts = []
        for _ in range(n):
            ts.append(t)
            step = bits(4)
            while step > 8:
                step = bits(4)
            t += step + 1
        yield ts


def _gr48_monomials(images) -> list[tuple[tuple, tuple]]:
    """The distinct difference monomials of the images, in image order.

    Image prod_J P_J^{e_J} equals prod_{a<b} (t_b - t_a)^{d_ab} at every
    Vandermonde point, with d_ab the sum of e_J over the 4-sets J holding
    both a and b. Each entry is (numerator terms, denominator terms); a
    term is (pair index, positive exponent), pairs listed as
    `itertools.combinations` lists them.
    """
    pair_index = {
        pair: i for i, pair in enumerate(itertools.combinations(range(1, 9), 2))
    }
    pairs_of = {
        J: tuple(pair_index[pair] for pair in itertools.combinations(J, 2))
        for J in itertools.combinations(range(1, 9), 4)
    }
    distinct: dict[tuple[int, ...], None] = {}
    for image in images:
        d = [0] * len(pair_index)
        for J, e in image.items():
            for i in pairs_of[J]:
                d[i] += e
        distinct[tuple(d)] = None
    return [
        (
            tuple((i, e) for i, e in enumerate(d) if e > 0),
            tuple((i, -e) for i, e in enumerate(d) if e < 0),
        )
        for d in distinct
    ]


def _shared_pairs(sides: list[dict[int, int]], first: int) -> list[tuple[int, int]]:
    """Rewrite products so that each repeated pair of factors is
    multiplied once.

    A side is a multiset {symbol: multiplicity}, the product of its
    symbols. Greedily, in the style of Re-Pair (Larsson and Moffat, 2000),
    the pair (x, y), x <= y, that can be taken out of the sides most often
    becomes a new symbol s = x*y, and each side trades as many copies of x
    and y as it can for copies of s: min(m_x, m_y) of them, or m_x // 2
    for a square. New symbols are numbered `first`, `first + 1`, ... in
    creation order. Ties go to the smallest pair, and the rewrite stops
    when no pair can be taken out twice. Changes the sides in place and
    returns the pair of each new symbol.

    Every pair keeps its exact count, and every symbol the set of sides
    that hold it, so a step visits only the sides holding both x and y
    and updates only the counts of pairs with x, y or s. A heap finds the
    most frequent pair; a count that fell since it was pushed is pushed
    again when it surfaces.
    """
    count: dict[tuple[int, int], int] = {}
    holding: dict[int, set[int]] = {}
    for j, side in enumerate(sides):
        for x, mx in side.items():
            holding.setdefault(x, set()).add(j)
            for y, my in side.items():
                if x < y:
                    copies = mx if mx < my else my
                elif x == y and mx > 1:
                    copies = mx // 2
                else:
                    continue
                q = (x, y)
                count[q] = count.get(q, 0) + copies
    heap = [(-c, q) for q, c in count.items() if c > 1]
    heapq.heapify(heap)
    made: list[tuple[int, int]] = []
    while heap:
        c, p = heapq.heappop(heap)
        if count[p] != -c:
            if count[p] > 1:
                heapq.heappush(heap, (-count[p], p))
            continue
        # x and y only ever lose copies, so no side holds p again
        count[p] = 0
        s = first + len(made)
        made.append(p)
        x, y = p
        holding[s] = holders = set()
        # z -> [copies of (z, s), copies lost of (x, z), of (y, z)]
        tally: dict[int, list[int]] = {}
        for j in holding[x] & holding[y] if x != y else list(holding[x]):
            side = sides[j]
            mx, my = side[x], side[y]
            if x == y:
                # a square takes two copies of x and none of a second symbol
                k = mx // 2
                rx, my, ry = mx - 2 * k, 0, 0
            else:
                k = min(mx, my)
                rx, ry = mx - k, my - k
            if not k:
                continue
            del side[x]
            side.pop(y, None)
            # every other symbol z pairs less with x and y, and pairs with
            # s (min() written out: this is the hot loop)
            for z, mz in side.items():
                counts = tally.get(z)
                if counts is None:
                    tally[z] = counts = [0, 0, 0]
                counts[0] += k if k < mz else mz
                counts[1] += (mx if mx < mz else mz) - (rx if rx < mz else mz)
                counts[2] += (my if my < mz else mz) - (ry if ry < mz else mz)
            for w, before, after in ((x, mx, rx), (y, my, ry)):
                if x != y and before // 2 > after // 2:
                    count[w, w] -= before // 2 - after // 2
                if after:
                    side[w] = after
                    tally.setdefault(w, [0, 0, 0])[0] += min(k, after)
                elif before:
                    holding[w].discard(j)
            side[s] = k
            holders.add(j)
            if k > 1:
                tally.setdefault(s, [0, 0, 0])[0] += k // 2
        for z, (copies, lost_x, lost_y) in tally.items():
            if lost_x:
                count[(x, z) if x < z else (z, x)] -= lost_x
            if lost_y:
                count[(y, z) if y < z else (z, y)] -= lost_y
            q = (z, s)
            count[q] = copies
            if copies > 1:
                heapq.heappush(heap, (-copies, q))
    return made


def _gr48_kernel(monomials) -> Callable[[Iterable[Sequence[int]]], tuple[int, int]]:
    """Compile the difference monomials of `_gr48_monomials` into one
    function `best(points)` that returns the first largest value the
    monomials take over the points, as an unreduced pair (num, den).

    It ranks the monomials in floats and decides them in integers. Its
    body is a loop over the points, each a sequence t0 < ... < t7, of
    straight-line float code: the 28 integer differences d_i = t_b - t_a
    (pairs in `itertools.combinations` order), their floats x_i, the
    float products the monomials share, and per monomial, in monomial
    order, its value v = N~/D~ in floats and one test `if not v < lim:`.
    Only a monomial that passes the test reaches the exact tier, `take`,
    one function for every monomial: it multiplies the monomial's integer
    differences at the point into (n, d) (an empty side is 1), and one
    comparison `n*bd > bn*d` makes (n, d) the running maximum (bn, bd) and
    lim = fl(n/d)*(1 - kappa). The maximum starts at (0, 1) and lim at
    -1.0, and the maximum moves only on a strictly larger value, so it is
    the first maximal pair the exact comparisons meet, point by point; no
    points or no monomials leave (0, 1). Every denominator is a product of
    differences, positive at an increasing point, so the comparison is
    exact.

    The float tier skips only monomials the exact tier would not take.
    Let deg be the most factors on one side. Each factor is an exact
    float (below 2**53), a side takes at most deg - 1 roundings and the
    quotient one more, so v is within gamma_{2 deg} of the exact value,
    relatively (Higham's gamma_k = k u / (1 - k u), u = 2**-53). CPython
    rounds an int / int quotient correctly, so fl(bn/bd) is within u of
    the exact maximum, and the product with 1 - kappa adds one more u.
    With kappa = 2**-kappa_bits, kappa_bits = 53 - (4 deg + 3).bit_length(),
    kappa exceeds (4 deg + 3) u >= gamma_{2 deg} + 2u + u**2, so v < lim
    proves the exact value strictly below bn/bd; an exact tie always
    reaches the exact tier. Floats must not overflow: every factor is at
    least 1, so every side stays below 2**1000 when t7 - t0 < span =
    2**min(53, 1000 // deg). A point at or beyond span, or one that does
    not increase, stops the loop before its first comparison, and `best`
    raises ValueError; no such point is filtered. A NaN fails `v < lim`
    and goes to the exact tier. So `best` returns what the exact
    comparisons alone would, pair for pair: a filtered exact predicate
    (Shewchuk, 1997; Bronnimann, Burnikel and Pion, 2001).

    The source embeds only ints checked or computed here, a pair index
    in 0..27 and an exponent of at least 1, and names it makes; anything
    else raises ValueError before any code is compiled.

    Every side is a multiset of differences, and `_shared_pairs` turns
    each pair of factors that occurs at least twice into a float product
    s_k = a*b computed once per point. On the stored table this cuts the
    float multiplications per point from 1,452 to 439. The rewrite runs
    in the build, so the first `verify_gr48_table` call in a process
    pays it.
    """
    pairs = list(itertools.combinations(range(8), 2))

    def side(terms) -> dict[int, int]:
        factors: dict[int, int] = {}
        for i, e in terms:
            if type(i) is not int or not 0 <= i < len(pairs):
                raise ValueError(f"difference index must be an int in 0..27, got {i!r}")
            if type(e) is not int or e < 1:
                raise ValueError(f"exponent must be an int of at least 1, got {e!r}")
            factors[i] = factors.get(i, 0) + e
        return factors

    exact = [side(terms) for up, down in monomials for terms in (up, down)]
    deg = max((sum(factors.values()) for factors in exact), default=0)
    bits = min(53, 1000 // max(deg, 1))
    kappa_bits = 53 - (4 * deg + 3).bit_length()
    keep = (2 ** kappa_bits - 1) / 2 ** kappa_bits
    # each side's differences as (a, b) column pairs, a factor e times
    columns = [tuple(pairs[i] for i, e in sorted(factors.items()) for _ in range(e))
               for factors in exact]

    def take(k: int, point: Sequence[int], bn: int, bd: int, lim: float
             ) -> tuple[int, int, float]:
        n = d = 1
        for a, b in columns[2 * k]:
            n *= point[b] - point[a]
        for a, b in columns[2 * k + 1]:
            d *= point[b] - point[a]
        if n * bd > bn * d:
            return n, d, n / d * keep
        return bn, bd, lim

    sides = [dict(factors) for factors in exact]
    shared = _shared_pairs(sides, len(pairs))
    floats = [f"x{i}" for i in range(len(pairs))] + [f"s{k}" for k in range(len(shared))]

    def product(factors: dict[int, int]) -> str:
        return "*".join(["*".join([floats[x]] * m) for x, m in sorted(factors.items())]) or "1"

    def value(up: dict[int, int], down: dict[int, int]) -> str:
        if not down:
            return product(up)
        den = product(down)
        return product(up) + "/" + (den if "*" not in den else f"({den})")

    source = (
        "def best(points):\n"
        "    bn, bd, lim = 0, 1, -1 / 1\n"
        "    for p in points:\n"
        "        " + ", ".join(f"t{j}" for j in range(8)) + " = p\n"
        + "".join(f"        d{i} = t{b} - t{a}\n" for i, (a, b) in enumerate(pairs))
        + f"        if d{pairs.index((0, 7))} >= {2 ** bits}"
        + "".join(f" or d{pairs.index((j, j + 1))} < 1" for j in range(7)) + ": return\n"
        + "".join(f"        x{i} = d{i} / 1\n" for i in range(len(pairs)))
        + "".join(f"        s{k} = {floats[x]}*{floats[y]}\n" for k, (x, y) in enumerate(shared))
        + "".join(f"        if not {value(up, down)} < lim: bn, bd, lim = take({k}, p, bn, bd, lim)\n"
                  for k, (up, down) in enumerate(zip(sides[::2], sides[1::2])))
        + "    return bn, bd\n"
    )
    scope = {"__builtins__": {}, "take": take}
    exec(compile(source, "<gr48 kernel>", "exec"), scope)
    filtered = scope["best"]

    def best(points: Iterable[Sequence[int]]) -> tuple[int, int]:
        pair = filtered(points)
        if pair is None:
            raise ValueError(f"every point must increase, with t7 - t0 below 2**{bits}")
        return pair

    return best


def _gr48_evaluate(kernel, points) -> tuple[bool, int, int]:
    """Largest value of the monomials compiled into `kernel` (see
    `_gr48_kernel`) over the points: (every value at most 1, num, den),
    with num/den the first largest value, unreduced. Every denominator is
    positive, so every value is at most 1 exactly when the largest is."""
    best_num, best_den = kernel(points)
    return best_num <= best_den, best_num, best_den


class Gr48Report:
    """Outcome of checking the stored 4x8 ratios and their symmetry images:
    the counts, whether every image has weight zero, whether every value
    seen was at most 1, and the exact largest value max_num / max_den."""

    __slots__ = (
        "num_ratios", "num_images", "num_points",
        "weight_zero", "all_bounded", "max_num", "max_den",
    )

    def __init__(self, num_ratios, num_images, num_points,
                 weight_zero, all_bounded, max_num, max_den):
        self.num_ratios = num_ratios
        self.num_images = num_images
        self.num_points = num_points
        self.weight_zero = weight_zero
        self.all_bounded = all_bounded
        self.max_num = max_num
        self.max_den = max_den

    @property
    def max_value(self) -> Fraction:
        return Fraction(self.max_num, self.max_den)

    @property
    def strictly_below_one(self) -> bool:
        return self.all_bounded and self.max_num < self.max_den

    @property
    def ok(self) -> bool:
        return self.weight_zero and self.all_bounded

    def to_dict(self) -> dict:
        return {
            "ratios": self.num_ratios,
            "images": self.num_images,
            "points": self.num_points,
            "weight_zero": self.weight_zero,
            "all_bounded": self.all_bounded,
            "strictly_below_one": self.strictly_below_one,
            "max_value": str(self.max_value),
            # "at most 1" holds at the sample points only; no proof
            "evidence": "sampled",
        }


@functools.cache
def _gr48_compiled() -> tuple[
        int, int, bool, Callable[[Iterable[Sequence[int]]], tuple[int, int]]]:
    """What verify_gr48_table needs of the stored table, built once per
    process: (number of ratios, number of symmetry images, whether every
    image has weight zero, the `_gr48_kernel` of the images' difference
    monomials). None of it changes, so every caller may share it."""
    ratios = load_gr48_ratios()
    images = _gr48_images(ratios)
    weight_zero = True
    for ratio in images:
        weight = [0] * 8
        for J, e in ratio.items():
            for c in J:
                weight[c - 1] += e
        if any(weight):
            weight_zero = False
    return len(ratios), len(images), weight_zero, _gr48_kernel(_gr48_monomials(images))


def table_report(points: int, seed: int) -> Gr48Report:
    """The report of `verify_gr48_table` on arguments it has checked:
    the stored table's images evaluated at `points` Vandermonde points
    drawn from `seed`."""
    num_ratios, num_images, weight_zero, kernel = _gr48_compiled()
    ok, best_num, best_den = _gr48_evaluate(kernel, _integer_points(8, points, seed))
    return Gr48Report(
        num_ratios, num_images, points,
        weight_zero, ok, best_num, best_den,
    )
