"""The check behind `grassmannian.verify_gr48_table`: the 4x8 table's
symmetry images, their difference monomials, and the integer kernel that
evaluates them at totally positive points.

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

    Its body is a loop over the points, each a sequence t0 < ... < t7,
    of straight-line integer code: the 28 differences d_i = t_b - t_a
    (pairs in `itertools.combinations` order), then the products the
    monomials share, then per monomial, in monomial order, `n = ...` and
    `d = ...`, the products of its numerator and denominator (an empty
    side is 1), and one comparison `n*bd > bn*d` that makes (n, d) the
    running maximum (bn, bd). The maximum starts at (0, 1) and moves
    only on a strictly larger value, so it is the first maximal pair the
    comparisons meet, point by point; no points or no monomials leave
    (0, 1). Every denominator is a product of differences, positive at
    an increasing point, so the comparison is exact. The source embeds
    only ints checked here, a pair index in 0..27 and an exponent of at
    least 1, and names it makes; anything else raises ValueError before
    any code is compiled.

    Every side is a multiset of differences, and `_shared_pairs` turns
    each pair of factors that occurs at least twice into a product
    s_k = a*b computed once per point. On the stored table this cuts the
    multiplications per point from 1,452 to 439, before the 228 of the
    comparisons. The rewrite runs in the build, so the first
    `verify_gr48_table` call in a process pays it.
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

    sides = [side(terms) for up, down in monomials for terms in (up, down)]
    shared = _shared_pairs(sides, len(pairs))

    def name(x: int) -> str:
        return f"d{x}" if x < len(pairs) else f"s{x - len(pairs)}"

    def product(factors: dict[int, int]) -> str:
        return "*".join(name(x) for x in sorted(factors) for _ in range(factors[x])) or "1"

    source = (
        "def best(points):\n"
        "    bn, bd = 0, 1\n"
        "    for " + ", ".join(f"t{j}" for j in range(8)) + " in points:\n"
        + "".join(f"        d{i} = t{b} - t{a}\n" for i, (a, b) in enumerate(pairs))
        + "".join(f"        {name(len(pairs) + k)} = {name(x)}*{name(y)}\n"
                  for k, (x, y) in enumerate(shared))
        + "".join(f"        n = {product(up)}\n"
                  f"        d = {product(down)}\n"
                  "        if n*bd > bn*d: bn = n; bd = d\n"
                  for up, down in zip(sides[::2], sides[1::2]))
        + "    return bn, bd\n"
    )
    scope = {"__builtins__": {}}
    exec(compile(source, "<gr48 kernel>", "exec"), scope)
    return scope["best"]


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
