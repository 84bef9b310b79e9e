"""The level table of a verify against the loop over levels it replaces.

``isoparametric._level_table`` computes the statistics, the curvature groups
and the most common curvature-group structure of every level at once, from
the one stacked ``LevelFrames`` of a verify, and ``_randers_witness`` takes its
rows from that stack with one index.  Their reference is the per-level code
they replace (``oracles.level_stats``, ``oracles.randers_witness``): every
number must match it bit for bit, so each level's sums keep numpy's pairwise
order, and a tie between structures goes to the one met first.
"""

import dataclasses

import numpy as np
import pytest

from minkgeom import calculus, isoparametric as iso, norms
from minkgeom.isoparametric import WITNESS_POINTS
from minkgeom.errors import NotInDomain

from . import oracles


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def assert_same_stats(got, want):
    """Each level's entries equal the per-level loop's: keys in order, values
    bit for bit and of the same type."""
    assert [list(s) for s in got] == [list(s) for s in want]
    for g, w in zip(got, want):
        for key, value in w.items():
            if key == "curvature_groups":
                assert [m for _, m in g[key]] == [m for _, m in value], key
                assert [type(k) for k, _ in g[key]] == [type(k) for k, _ in value], key
                assert _bits([k for k, _ in g[key]]) == _bits([k for k, _ in value]), key
            elif isinstance(value, list):
                assert [type(v) for v in g[key]] == [type(v) for v in value], key
                assert _bits(g[key]) == _bits(value), key
            else:
                assert type(g[key]) is type(value) and _bits(g[key]) == _bits(value), key


def samples_of(frames, sizes) -> list:
    """``LevelSample``s of the consecutive runs of ``sizes`` rows of ``frames``,
    level i at t = i."""
    out, start = [], 0
    for i, size in enumerate(sizes):
        rows = frames[start:start + size]
        out.append(iso.LevelSample(t=float(i), points=rows.geometry.x,
                                   fstar=rows.geometry.fstar, lap=rows.geometry.lap,
                                   curvatures=rows.principal_curvatures, skipped=0,
                                   stack=frames, rows=slice(start, start + size)))
        start += size
    return out


def assert_table_matches_the_loop(samples, frames):
    table = iso._level_table(frames, [len(s.points) for s in samples])
    stats, *worst, a_nodes, b_nodes, structure = oracles.level_stats(samples)
    for st in stats:  # verify adds these three
        del st["level"], st["points"], st["skipped"]
    assert_same_stats(table["stats"], stats)
    assert _bits(table["worst"]) == _bits(worst)
    levels = [s.t for s in samples]
    for m, want in zip(table["mean"][:2].tolist(), (a_nodes, b_nodes)):
        assert _bits(np.array(sorted(zip(levels, m)))) == _bits(want)
    assert table["structure"] == structure
    # the groups that ``minkgeom curvatures`` reports
    for st, s in zip(table["stats"], samples):
        assert _bits(st["curvature_groups"]) == _bits(oracles.modal_groups(s))
    return table


def randers_benchmark(case):
    """(norm, field, levels, count) of the five Randers benchmark scenarios."""
    sphere = norms.RandersNorm([0.5, 0.0, 0.0])
    if case == "sphere":
        return sphere, calculus.sphere_potential(sphere), [0.5, 2.0, 4.5], 64
    if case == "reverse-sphere":
        return sphere, calculus.sphere_potential(sphere, reverse=True), [-4.5, -2.0, -0.5], 64
    if case == "hyperplane":
        return sphere, calculus.linear_field([1.0, 2.0, 0.5]), [1.0, 2.0, 3.0], 160
    if case == "cylinder":
        norm = norms.RandersNorm([0.3, 0.0, 0.0])
        return norm, calculus.cylinder_potential(norm, 2), [0.125, 0.5, 1.125], 64
    norm = norms.RandersNorm([0.1, 0.0, 0.2])
    return norm, calculus.norm_plus_linear(norm, 2), [0.8, 1.0, 1.25], 128


@pytest.mark.parametrize("case", ["sphere", "reverse-sphere", "hyperplane", "cylinder",
                                  "counterexample"])
@pytest.mark.parametrize("seed", [0, 7])
def test_randers_verifies_match_the_per_level_loop(case, seed):
    norm, field, levels, count = randers_benchmark(case)
    samples, frames = iso._sample_stack(norm, field, levels, count, seed)
    table = assert_table_matches_the_loop(samples, frames)
    assert (iso._randers_witness(norm, field, frames, table, 1e-6)
            == oracles.randers_witness(norm, field, samples, 1e-6))
    rep = iso.verify(norm, field, levels, count=count, seed=seed)
    want = oracles.level_stats(rep.samples)
    assert_same_stats(rep.level_stats, want[0])
    assert (_bits(rep.a_nodes), _bits(rep.b_nodes), rep.group_structure) == (
        _bits(want[4]), _bits(want[5]), want[6])


@pytest.mark.parametrize("n,count", [(3, 10), (5, 8)])
def test_alpha_beta_spheres_match_the_per_level_loop(n, count):
    norm = norms.AlphaBetaNorm(norms.PolynomialProfile([1.0, 1.0, 0.1]), 0.3, n,
                               strategy="taylor")
    samples, frames = iso._sample_stack(norm, calculus.sphere_potential(norm), [0.5, 2.0, 4.5],
                                        count, 0)
    assert_table_matches_the_loop(samples, frames)


def slab_field():
    """(norm, field): the Randers sphere potential, undefined where |x_2| > 0.8.
    A ray that leaves that slab before its level is skipped both ways, so on
    the levels 0.25, 0.5 and 1 the outer levels keep fewer points (24, 19 and
    12 of 24 rays; at 8 rays some keep fewer than WITNESS_POINTS)."""
    norm = norms.RandersNorm([0.5, 0.0, 0.0])

    def value(x):
        if abs(x[1]) > 0.8:
            raise NotInDomain("outside the slab")
        return 0.5 * norm.value(x) ** 2

    return norm, dataclasses.replace(
        calculus.custom_field(3, value, lambda x: norm.legendre(x),
                              lambda x: norm.fundamental_tensor(x)),
        regular_range=(0.0, np.inf))


@pytest.mark.parametrize("count", [24, 8])
def test_levels_of_unequal_counts_match_the_per_level_loop(count):
    norm, field = slab_field()
    samples, frames = iso._sample_stack(norm, field, [0.25, 0.5, 1.0], count, 0)
    sizes = [len(s.points) for s in samples]
    assert min(sizes) < WITNESS_POINTS if count == 8 else len(set(sizes)) == 3, sizes
    table = assert_table_matches_the_loop(samples, frames)

    def partial(X, order):  # df fails at the flow steps with x_1 > 0, so a' fails there
        if order == 0:
            return field.rows(X, 0)
        df, hess = field.rows(X, 2)
        df = np.where(X[:, :1] > 0.0, np.nan, df)
        return df if order == 1 else (df, hess)

    for f in (field, dataclasses.replace(field, rows=partial)):
        assert (iso._randers_witness(norm, f, frames, table, 1e-6)
                == oracles.randers_witness(norm, f, samples, 1e-6))


@pytest.mark.parametrize("case", ["equal levels", "a level lost rays"])
def test_each_level_reduces_its_own_rows(case):
    # every level's mean, std, max and min in the table has the bits of that
    # level's own 1-D reduction: on three levels of 16 rows, reduced as one
    # (levels, rows) reshape, and on levels of 24, 19 and 12 rows, one block
    # per level size
    if case == "equal levels":
        norm = norms.RandersNorm([0.5, 0.0, 0.0])
        field, levels = calculus.sphere_potential(norm), [0.5, 2.0, 4.5]
    else:
        (norm, field), levels = slab_field(), [0.25, 0.5, 1.0]
    samples, frames = iso._sample_stack(norm, field, levels, 16 if case == "equal levels" else 24,
                                        0)
    sizes = [len(s.points) for s in samples]
    assert (len(set(sizes)) == 1) == (case == "equal levels"), sizes
    table = iso._level_table(frames, sizes)
    geo, k = frames.geometry, frames.principal_curvatures
    for i, (st, start) in enumerate(zip(table["stats"], np.cumsum(sizes) - sizes)):
        rows = slice(start, start + sizes[i])
        fstar, lap = geo.fstar[rows], geo.lap[rows]
        means = [fstar.mean(), lap.mean(), geo.lap_scale[rows].mean()]
        assert _bits(table["mean"][:, i]) == _bits(means)
        scales = (abs(means[0]), max(abs(means[1]), means[2]))
        for name, v, scale in (("fstar", fstar, scales[0]), ("lap", lap, scales[1])):
            assert _bits(st[name + "_spread"]) == _bits(v.max() - v.min()), name
            std = v.std()
            assert _bits(st[name + "_cv"]) == _bits(std / scale if std != 0.0 else 0.0), name
        assert _bits(st["curvature_spread"]) == _bits(k[rows].max(axis=0) - k[rows].min(axis=0))


def test_a_tie_goes_to_the_structure_met_first():
    # the breaks of a stack of n = 4 rewritten so that two structures tie on
    # every level and over all levels, with curvatures apart from each other
    norm = norms.RandersNorm([0.2, 0.1, 0.0, -0.3])
    samples, frames = iso._sample_stack(norm, calculus.sphere_potential(norm), [0.5, 2.0, 4.5],
                                        8, 0)
    codes = [2, 1, 2, 1, 2, 1, 2, 1, 0, 3, 0, 3, 0, 3, 1, 1, 1, 1, 2, 2, 2, 2, 0, 3]
    breaks = (np.array(codes)[:, None] >> np.arange(2)) & 1 == 1
    k = np.sort(np.random.default_rng(3).standard_normal((24, 3)), axis=1)
    tied = dataclasses.replace(frames, breaks=breaks, principal_curvatures=k)
    # levels of 8, 6 and 10 rows: structure 2 leads level 0, 0 level 1 and 1
    # level 2, each tied; over all levels 2 and 1 tie at 8
    tied_samples = samples_of(tied, [8, 6, 10])
    table = assert_table_matches_the_loop(tied_samples, tied)
    assert [[m for _, m in st["curvature_groups"]] for st in table["stats"]] == [
        [2, 1], [3], [1, 2]]
    assert table["structure"] == (2, 1)


def test_n2_has_no_break_columns():
    norm = norms.RandersNorm([0.3, -0.2])
    samples, frames = iso._sample_stack(norm, calculus.sphere_potential(norm), [0.5, 2.0, 4.5],
                                        16, 0)
    assert frames.breaks.shape == (48, 0)
    table = assert_table_matches_the_loop(samples, frames)
    assert table["structure"] == (1,)


def test_run_means_have_the_bits_of_each_run_mean():
    rng = np.random.default_rng(11)
    for trial in range(200):
        # runs of one length every other trial
        sizes = rng.integers(0, 40, rng.integers(1, 7))
        if trial % 2:
            sizes[:] = sizes[0] or 1
        values = rng.standard_normal((2, int(sizes.sum()))) * 10.0 ** rng.uniform(-5, 5)
        got = iso._run_means(values, sizes)
        want = np.zeros((2, len(sizes)))
        start = 0
        for i, size in enumerate(sizes.tolist()):
            if size:
                want[:, i] = [row[start:start + size].mean() for row in values]
            start += size
        assert _bits(got) == _bits(want)
        assert _bits(iso._run_means(values[0], sizes)) == _bits(want[0])
