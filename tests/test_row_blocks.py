"""Grid stages in blocks of lag rows: the bits of one pass, on up to two threads.

Every test here also holds on one usable CPU (``taskset -c 0``), where each
stage runs one pass on the calling thread.
"""

import sys
import threading
import time
from dataclasses import astuple

import numpy as np
import pytest

from ambishrink import ambiguity, covariance
from ambishrink.ambiguity import (
    AmbiguityGrid,
    _in_row_blocks,
    _row_blocks,
    _usable_cpus,
    emaf,
    normalization,
    normalize,
    raw_moments,
)
from ambishrink.covariance import invert_af
from ambishrink.procgen import gen_aggregation
from ambishrink.series import analytic_signal, demean
from ambishrink.shrinkage import apply_threshold, fit, shrink, threshold_field
from ambishrink.tfr import bilinear, dual_frequency, window_bank

# one, two, three and sixteen blocks of the (2n-1, 2n) grid
BLOCKS = {128: 1, 129: 2, 200: 3, 512: 16}
WIDE = 2**14  # complex cells per row: four rows per block


def routed_stages(n: int) -> dict[str, np.ndarray]:
    """Each routed stage's result on one aggregation record of ``n`` samples at ``dt = 0.37``."""
    x = gen_aggregation(n, seed=n, dt=0.37)
    m = raw_moments(analytic_signal(demean(x)))
    a = emaf(m)
    a_norm = normalize(a, normalization(n, x.dt))
    params = fit(a_norm)
    theta = threshold_field(params, a_norm)
    kept = apply_threshold(a, theta)
    m_eb = invert_af(kept)
    dead = kept.entries.copy()
    dead[::3] = 0.0  # every third lag row dead, the first and the last among them
    est = shrink(x)
    return {
        "raw_moments": m.entries,
        "emaf": a.entries,
        "normalization": normalization(n, x.dt).kappa,
        "normalization at delta 0.3": normalization(n, x.dt, 0.3).kappa,
        "normalize": a_norm.entries,
        "threshold_field": theta.theta,
        "threshold_field origin": theta.theta[n - 1, n],
        "apply_threshold": kept.entries,
        "invert_af": m_eb.entries,
        "invert_af with dead rows": invert_af(AmbiguityGrid(dead, dt=x.dt)).entries,
        "bilinear": bilinear(m_eb).values,
        "bilinear at alpha 0 with a profile": bilinear(m_eb, 0.0, window_bank("hann", 0, 5)).values,
        "dual_frequency": dual_frequency(a),
        "shrink params": np.array(astuple(est.params)),
        "shrink theta": est.theta.theta,
        "shrink m_eb": est.m_eb.entries,
        "shrink m_raw": est.m_raw.entries,
    }


class TestBlockRule:
    def test_blocks_of_the_grid(self):
        for n, count in BLOCKS.items():
            blocks = _row_blocks(2 * n - 1, 2 * n)
            assert len(blocks) == count
            assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]]
            assert blocks[0].start == 0 and blocks[-1].stop == 2 * n - 1

    def test_a_row_wider_than_a_block_is_a_block(self):
        assert _row_blocks(3, 2**17) == [slice(0, 1), slice(1, 2), slice(2, 3)]


@pytest.mark.parametrize("n", sorted(BLOCKS))
def test_every_routed_stage_matches_one_block_bitwise(monkeypatch, n):
    blocked = routed_stages(n)
    monkeypatch.setattr(ambiguity, "_BLOCK_BYTES", 2**62)
    whole = routed_stages(n)
    assert blocked["threshold_field origin"] == 1.0
    for name, values in whole.items():
        got = blocked[name]
        assert got.dtype == values.dtype and got.shape == values.shape, name
        assert got.tobytes() == values.tobytes(), name


def record_blocks(delay: float = 0.002):
    """A block core that logs each block with its thread and sleeps ``delay``."""
    seen = []

    def fill(block: slice) -> None:
        seen.append((block.start, block.stop, threading.get_ident()))
        time.sleep(delay)

    return seen, fill


class TestInRowBlocks:
    def test_each_block_once_on_up_to_two_threads(self):
        threads = threading.active_count()
        seen, fill = record_blocks()
        _in_row_blocks(fill, 32, WIDE)  # 8 blocks of 4 rows
        if _usable_cpus() > 1:
            assert sorted((start, stop) for start, stop, _ in seen) == [(i, i + 4) for i in range(0, 32, 4)]
            assert len({ident for *_, ident in seen}) == 2
        else:
            assert seen == [(0, 32, threading.get_ident())]
        assert threading.active_count() == threads

    def test_each_block_once_under_a_short_switch_interval(self):
        seen, fill = record_blocks(0.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _in_row_blocks(fill, 2000, 2**16)  # 2000 blocks of one row
        finally:
            sys.setswitchinterval(interval)
        starts = sorted(start for start, *_ in seen)
        assert starts == (list(range(2000)) if _usable_cpus() > 1 else [0])

    def test_one_block_runs_inline(self):
        seen, fill = record_blocks(0.0)
        _in_row_blocks(fill, 4, WIDE)
        assert seen == [(0, 4, threading.get_ident())]

    def test_one_pass_under_the_blas_cap(self):
        seen, fill = record_blocks()
        with covariance._one_blas_thread():
            _in_row_blocks(fill, 32, WIDE)
        assert seen == [(0, 32, threading.get_ident())]
        seen.clear()
        _in_row_blocks(fill, 32, WIDE)  # the cap is lifted
        assert len({ident for *_, ident in seen}) == min(2, _usable_cpus())

    @pytest.mark.parametrize("where", ["last block", "helper thread"])
    def test_error_in_a_block_is_raised_after_the_join(self, capsys, where):
        threads, caller = threading.active_count(), threading.get_ident()
        started = []

        def fill(block: slice) -> None:
            started.append(block.start)
            time.sleep(0.002)
            if block.stop == 32 if where == "last block" else threading.get_ident() != caller:
                raise KeyError(where)

        if where == "helper thread" and _usable_cpus() < 2:
            pytest.skip("one usable CPU: no helper thread")
        with pytest.raises(KeyError, match=where):
            _in_row_blocks(fill, 32, WIDE)
        assert where != "last block" or (28 in started if _usable_cpus() > 1 else started == [0])
        assert threading.active_count() == threads
        assert capsys.readouterr().err == ""  # nothing reached threading.excepthook

    def test_the_helper_thread_keeps_the_caller_floating_point_rules(self):
        caller = threading.get_ident()

        def fill(block: slice) -> None:
            time.sleep(0.002)
            if threading.get_ident() != caller:
                np.multiply(np.full(3, 1e300), 1e300)  # overflows

        with np.errstate(over="ignore"):  # not the default "warn", which the suite makes an error
            _in_row_blocks(fill, 32, WIDE)
        if _usable_cpus() > 1:
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                _in_row_blocks(fill, 32, WIDE)
