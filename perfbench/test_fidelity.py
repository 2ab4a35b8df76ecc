"""The benchmark's generators draw exactly what the repository's draw.

    python3 -m pytest -q perfbench/test_fidelity.py

Only this test imports ``tests/util.py`` and the private generators of
``nckit.suites``; the benchmark itself runs on its own copies.
"""

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import util  # noqa: E402  (tests/util.py)
import workloads  # noqa: E402
from nckit import suites  # noqa: E402


def test_gauge_pool_replays_criterion_05():
    """Same draws, in the same order, as test_criterion_05 at seed 2005."""
    rng = random.Random(2005)
    expected = []
    for _ in range(50):
        theta = util.rand_theta(rng, max_deg=1)
        spatial = tuple(util.rand_imag_poly(rng, max_terms=2, max_t=1,
                                            max_spatial=3) for _ in range(3))
        lam = util.rand_imag_poly(rng, max_terms=2, max_t=1, max_spatial=3)
        expected.append((theta, spatial, lam))

    assert workloads.GAUGE_STREAM_SEED == 2005
    assert workloads.GAUGE_CASES == 50
    rng = random.Random(workloads.GAUGE_STREAM_SEED)
    got = [workloads.gauge_inputs(rng) for _ in range(workloads.GAUGE_CASES)]
    for (theta, spatial, lam), (g_theta, g_pot, g_lam) in zip(expected, got):
        assert theta == g_theta
        assert spatial == g_pot.spatial()
        assert lam == g_lam
    # the heavy case criterion 05 spends most of its time on is in the pool
    assert any(c.cid == "g29" for c in workloads.gauge_pool(None))


def test_suite_generator_copies():
    for seed in range(20):
        a, b = random.Random(seed), random.Random(seed)
        assert workloads.suite_rand_theta(a) == suites._rand_theta(b)
        assert workloads.suite_rand_poly(a) == suites._rand_poly(b)
        assert workloads.suite_rand_form(a) == suites._rand_form(b)
        assert (workloads.suite_rand_wave_numbers(a)
                == suites._rand_wave_numbers(b))
        assert a.random() == b.random()
