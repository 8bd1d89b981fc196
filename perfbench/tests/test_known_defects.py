"""Known defects the benchmark shows, recorded as strict expected failures.

The linear-ensemble workloads fail their own statistical checks on some
seeds.  The importance weights degenerate with time (ROADMAP item 4), so
weighted estimators are heavy-tailed and their error bars too small:
``moments_pairs`` puts its Monte Carlo second moment below the analytic one
by more than 3 standard errors + 25 dt, and ``traj_linear`` fails the
martingale check.  ``traj_linear`` also fails the Wiener-law check on two
seeds, where each of seven tests runs at 99% with no correction for testing
seven at once.  These cases turn into failures once the numbers change, and
should then be re-checked and removed.

    PYTHONPATH=src python3 -m pytest perfbench/tests/test_known_defects.py
"""

from __future__ import annotations

import pytest

import workloads

WEIGHTS = "ROADMAP item 4: importance-weight degeneracy"
FAMILY = "ROADMAP item 4: seven Wiener-law tests at 99% each, no family-wise correction"


def _case(workload, seed, reason):
    return pytest.param(workload, seed, marks=pytest.mark.xfail(strict=True, reason=reason),
                        id=f"{workload}-{seed}")


@pytest.mark.parametrize("workload, seed", [
    _case("moments_pairs", 1, WEIGHTS),
    _case("moments_pairs", 11, WEIGHTS),
    _case("moments_pairs", 13, WEIGHTS),
    _case("traj_linear", 6, WEIGHTS),
    _case("traj_linear", 9, FAMILY),
    _case("traj_linear", 12, FAMILY),
])
def test_checks_pass_on_seed(workload, seed, tmp_path):
    cfg, coeffs = workloads.setup(workload, seed)
    outcome = workloads.run(workload, cfg, coeffs, tmp_path)
    assert outcome.failures == []
