"""The fork-based ordered map: order, errors, dead workers, reaping."""

import os
import time
from contextlib import closing, suppress

import pytest

from cactusnet import parallel
from cactusnet.errors import NumericFailureError
from cactusnet.parallel import ordered_map

PARENT = os.getpid()


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count the map sees."""
    def set_cpus(n):
        monkeypatch.setattr(parallel, "cpu_count", lambda: n)
    return set_cpus


def no_children() -> bool:
    """True when this process has no child left, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def square_where(unit):
    # the first unit is the slowest, so later ones finish first
    time.sleep(0.2 if unit == 0 else 0.0)
    return unit * unit, os.getpid()


@pytest.mark.parametrize("n", [2, 3])
def test_results_come_in_unit_order_from_workers(cpus, n):
    cpus(n)
    got = list(ordered_map(square_where, range(7)))
    assert [value for value, _ in got] == [u * u for u in range(7)]
    pids = {pid for _, pid in got}
    assert PARENT not in pids and len(pids) == n
    assert no_children()


@pytest.mark.parametrize("case", ["one cpu", "one unit", "no affinity"])
def test_runs_here_with_one_cpu_one_unit_or_no_affinity(cpus, monkeypatch, case):
    units = range(1) if case == "one unit" else range(4)
    if case == "no affinity":
        # as on macOS
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert parallel.cpu_count() == 1
    else:
        cpus(1 if case == "one cpu" else 2)
    got = list(ordered_map(square_where, units))
    assert got == [(u * u, PARENT) for u in units]


def diverge_at_two(unit):
    if unit == 2:
        raise NumericFailureError(f"unit {unit} diverged", layer_index=7,
                                  job=(unit, os.getpid()))
    return unit


def test_an_exception_crosses_with_its_type_message_and_attributes(cpus):
    cpus(2)
    results = ordered_map(diverge_at_two, range(5))
    # the units before it are yielded first
    assert [next(results), next(results)] == [0, 1]
    with pytest.raises(NumericFailureError) as exc:
        next(results)
    assert str(exc.value) == "unit 2 diverged"
    assert exc.value.layer_index == 7
    unit, pid = exc.value.job
    assert unit == 2 and pid != PARENT
    assert no_children()


def test_an_outcome_that_cannot_cross_runs_here(cpus):
    class Local(Exception):
        """A class pickle cannot find by name."""

    def raise_local(unit):
        raise Local(os.getpid())

    cpus(2)
    with pytest.raises(Local) as exc:
        list(ordered_map(raise_local, range(2)))
    assert exc.value.args == (PARENT,)
    assert no_children()


@pytest.mark.parametrize("dies", ["odd units", "every unit"])
def test_units_of_a_worker_that_dies_run_here(cpus, dies):
    def exit_in_workers(unit):
        if os.getpid() != PARENT and (dies == "every unit" or unit % 2):
            os._exit(1)
        return unit * unit, os.getpid() == PARENT

    cpus(2)
    got = list(ordered_map(exit_in_workers, range(6)))
    assert [value for value, _ in got] == [u * u for u in range(6)]
    here = [u for u, (_, in_parent) in enumerate(got) if in_parent]
    assert set(here) >= {1, 3, 5}
    if dies == "every unit":
        assert here == list(range(6))
    assert no_children()


def hang_after_first(unit):
    if unit:
        time.sleep(60)
    return unit


@pytest.mark.parametrize("stop", [None, KeyboardInterrupt, OSError])
def test_stopping_early_kills_and_reaps_every_worker(cpus, stop):
    cpus(2)
    start = time.perf_counter()
    with suppress(KeyboardInterrupt, OSError):
        with closing(ordered_map(hang_after_first, range(4))) as results:
            for value in results:
                assert value == 0
                # the other worker still runs unit 1
                if stop is None:
                    break
                raise stop("consumer stopped")
    assert time.perf_counter() - start < 30
    assert no_children()


def test_a_closed_map_forks_nothing(cpus):
    cpus(2)
    ordered_map(hang_after_first, range(4)).close()
    assert no_children()
