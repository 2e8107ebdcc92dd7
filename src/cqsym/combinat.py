"""Colored compositions and colored permutations.

Conventions, used everywhere in this package:

- A colored composition is a tuple of (size, color) pairs with sizes >= 1
  and colors in range(m).  The number of colors m travels alongside the
  data in every context that needs it; it is never inferred.
- A colored permutation is a tuple of (value, color) pairs with distinct
  positive values.  The values need not be 1..n.
- Refinement order: beta <= alpha means alpha refines beta, i.e. alpha
  arises from beta by splitting parts into consecutive parts of the same
  color.  refines(fine, coarse) tests coarse <= fine.

Within one rainbow block (a maximal run of parts of equal color) the
refinement order is the Boolean lattice of split points of the block's
weight, which is what coarsenings/refinements exploit.
"""

from itertools import combinations, product


def check_comp(alpha, m):
    """Raise ValueError naming the violated invariant, else return alpha."""
    if m < 1:
        raise ValueError("m must be >= 1")
    for part in alpha:
        if len(part) != 2:
            raise ValueError("composition parts must be (size, color) pairs")
        size, color = part
        if not isinstance(size, int) or size < 1:
            raise ValueError("composition part sizes must be positive integers")
        if not isinstance(color, int) or not 0 <= color < m:
            raise ValueError("composition colors must lie in range(m)")
    return tuple(map(tuple, alpha))


def check_perm(pi, m):
    if m < 1:
        raise ValueError("m must be >= 1")
    values = set()
    for letter in pi:
        if len(letter) != 2:
            raise ValueError("permutation letters must be (value, color) pairs")
        v, color = letter
        if not isinstance(v, int) or v < 1:
            raise ValueError("permutation values must be positive integers")
        if v in values:
            raise ValueError("permutation values must be distinct")
        values.add(v)
        if not isinstance(color, int) or not 0 <= color < m:
            raise ValueError("permutation colors must lie in range(m)")
    return tuple(map(tuple, pi))


def weight(alpha):
    return sum(size for size, _ in alpha)


def reverse(beta):
    return tuple(reversed(beta))


def rainbow_decompose(alpha):
    """Maximal constant-color runs, as a tuple of (sizes-tuple, color).

    On a colored permutation the same scan gives (values-tuple, color)
    runs; color_runs names that use.
    """
    blocks = []
    for size, color in alpha:
        if blocks and blocks[-1][1] == color:
            blocks[-1][0].append(size)
        else:
            blocks.append(([size], color))
    return tuple((tuple(sizes), color) for sizes, color in blocks)


def refines(fine, coarse):
    """True iff coarse <= fine: fine splits the parts of coarse."""
    i = 0
    for size, color in coarse:
        total = 0
        while total < size:
            if i >= len(fine) or fine[i][1] != color:
                return False
            total += fine[i][0]
            i += 1
        if total != size:
            return False
    return i == len(fine)


def _block_points(sizes):
    # split-point set of an uncolored composition, as a bitmask
    mask = 0
    total = 0
    for size in sizes[:-1]:
        total += size
        mask |= 1 << (total - 1)
    return mask


def _join(sizes, cuts):
    # sums of the runs of sizes between cuts; bit i of cuts cuts after sizes[i]
    parts = []
    run = 0
    last = len(sizes) - 1
    for i, size in enumerate(sizes):
        run += size
        if i == last or cuts >> i & 1:
            parts.append(run)
            run = 0
    return tuple(parts)


def _submasks(mask):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def coarsenings(alpha):
    """All beta with beta <= alpha, including alpha itself."""
    blocks = rainbow_decompose(alpha)
    choices = []
    for sizes, color in blocks:
        # merging runs of parts costs the number of parts, not the weight
        choices.append([tuple((p, color) for p in _join(sizes, sub))
                        for sub in _submasks((1 << (len(sizes) - 1)) - 1)])
    out = []
    for combo in product(*choices):
        out.append(tuple(part for blk in combo for part in blk))
    return out


def refinements(alpha):
    """All beta with alpha <= beta, including alpha itself."""
    blocks = rainbow_decompose(alpha)
    choices = []
    for sizes, color in blocks:
        w = sum(sizes)
        points = _block_points(sizes)
        free = ((1 << max(w - 1, 0)) - 1) & ~points
        units = (1,) * w
        opts = []
        for extra in _submasks(free):
            opts.append(tuple((p, color) for p in _join(units, points | extra)))
        choices.append(opts)
    out = []
    for combo in product(*choices):
        out.append(tuple(part for blk in combo for part in blk))
    return out


def star(beta):
    """Per rainbow block, replace each non-initial part s >= 2 by (1, s-1)."""
    out = []
    for sizes, color in rainbow_decompose(beta):
        for i, size in enumerate(sizes):
            if i > 0 and size >= 2:
                out.append((1, color))
                out.append((size - 1, color))
            else:
                out.append((size, color))
    return tuple(out)


def hat(alpha):
    """Collapse runs of 1s into the next part to the right, per rainbow block.

    A trailing run of r ones in a block becomes a single part r.  The
    result is always a peak composition.
    """
    out = []
    for sizes, color in rainbow_decompose(alpha):
        ones = 0
        for size in sizes:
            if size == 1:
                ones += 1
            else:
                out.append((size + ones, color))
                ones = 0
        if ones:
            out.append((ones, color))
    return tuple(out)


def is_peak_composition(alpha):
    """True iff within every rainbow block all parts except the last exceed 1."""
    for sizes, _ in rainbow_decompose(alpha):
        if any(size == 1 for size in sizes[:-1]):
            return False
    return True


def descent_composition(pi):
    """C(pi): lengths of maximal constant-color increasing runs, with colors."""
    out = []
    run = 0
    for i, (v, color) in enumerate(pi):
        if run and color == pi[i - 1][1] and v > pi[i - 1][0]:
            run += 1
        else:
            if run:
                out.append((run, pi[i - 1][1]))
            run = 1
    if run:
        out.append((run, pi[-1][1]))
    return tuple(out)


color_runs = rainbow_decompose


def peak_set(pi):
    """Global positions (1-based) of interior peaks within constant-color runs."""
    peaks = []
    offset = 0
    for values, _ in color_runs(pi):
        for i in range(1, len(values) - 1):
            if values[i - 1] < values[i] > values[i + 1]:
                peaks.append(offset + i + 1)
        offset += len(values)
    return tuple(peaks)


def peak_composition(pi):
    """Chat(pi): per constant-color run, the classical peak composition."""
    out = []
    for values, color in color_runs(pi):
        n = len(values)
        prev = 0
        for i in range(1, n - 1):
            if values[i - 1] < values[i] > values[i + 1]:
                out.append((i + 1 - prev, color))
                prev = i + 1
        out.append((n - prev, color))
    return tuple(out)


def standardize(pi):
    """Replace values by their ranks 1..n; colors unchanged."""
    rank = {v: i + 1 for i, v in enumerate(sorted(v for v, _ in pi))}
    return tuple((rank[v], color) for v, color in pi)


def rep_chain(alpha):
    """The representative permutation on values 1..n with C(pi) == alpha.

    Runs are filled right to left, each taking the smallest values still
    available, so every run boundary is a value descent.  Deterministic;
    any other representative would serve equally by the structure of the
    F basis, this one is fixed for reproducible term order.
    """
    out = []
    lo = 1
    for size, color in reversed(alpha):
        out.append([(lo + i, color) for i in range(size)])
        lo += size
    return tuple(letter for run in reversed(out) for letter in run)


def conjugate(alpha):
    """The composition of the reversed representative word.

    Equals the composition read off the cycloribbon diagram of alpha
    reflected across y = x; an involution.
    """
    if not alpha:
        return ()
    pi = rep_chain(alpha)
    return descent_composition(tuple(reversed(pi)))


def shuffles(sigma, tau):
    """All interleavings of sigma and tau preserving each word's order.

    One word per set of positions for sigma's letters, in lexicographic
    order of the positions: where two words first differ, the one with
    sigma's letter there comes first."""
    if set(v for v, _ in sigma) & set(v for v, _ in tau):
        raise ValueError("shuffle words must have disjoint value sets")
    out = []
    for pos in combinations(range(len(sigma) + len(tau)), len(sigma)):
        word = list(tau)
        for p, letter in zip(pos, sigma):
            word.insert(p, letter)
        out.append(tuple(word))
    return out


def enumerate_compositions(m, n):
    """All alpha |=_m n, m(m+1)^(n-1) for n >= 1, in increasing order."""
    if n < 0:
        return []
    by_weight = [[()]]
    for w in range(1, n + 1):
        by_weight.append([((size, color),) + rest
                          for size in range(1, w + 1) for color in range(m)
                          for rest in by_weight[w - size]])
    return by_weight[n]


def peak_compositions(m, n):
    """All m-colored peak compositions of n."""
    return [a for a in enumerate_compositions(m, n) if is_peak_composition(a)]


def count_peak_compositions(m, n):
    """f_{m,n} via the recurrence f_{m,n} = m f_{m,n-1} + f_{m,n-2}."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    if n == 1:
        return m
    prev2, prev = m, m * m
    for _ in range(n - 2):
        prev2, prev = prev, m * prev + prev2
    return prev


# --- cycloribbon diagrams -------------------------------------------------
#
# Cells live in picture coordinates: x grows rightward, y grows upward,
# so the walk along the ribbon goes right and down.  Rows of the diagram
# are constant-y runs; colors weakly increase along rows and weakly
# decrease down columns.

def ribbon_cells(alpha):
    """Cells of the cycloribbon of alpha as (x, y, color), in walk order."""
    cells = []
    x, y = 0, 0
    prev_color = None
    for size, color in alpha:
        if prev_color is not None:
            if prev_color < color:
                x += 1          # adjoin to the same row
            else:
                y -= 1          # new row below, sharing the column
        for _ in range(size):
            cells.append((x, y, color))
            x += 1
        x -= 1
        prev_color = color
    return cells


def ribbon_decode(cells):
    """Recover the colored composition from a cycloribbon cell list."""
    rows = {}
    for x, y, color in cells:
        rows.setdefault(y, []).append((x, color))
    out = []
    for y in sorted(rows, reverse=True):
        row = sorted(rows[y])
        xs = [x for x, _ in row]
        if xs != list(range(xs[0], xs[0] + len(xs))):
            raise ValueError("cells do not form a ribbon")
        run = 0
        for i, (_, color) in enumerate(row):
            run += 1
            if i == len(row) - 1 or row[i + 1][1] != color:
                out.append((run, color))
                run = 0
    return tuple(out)


def conjugate_via_diagram(alpha):
    """Conjugate by reflecting the cycloribbon across y = x."""
    if not alpha:
        return ()
    reflected = [(y, x, color) for x, y, color in ribbon_cells(alpha)]
    return ribbon_decode(reflected)
