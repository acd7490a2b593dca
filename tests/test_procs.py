import os
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import assert_no_children, child_env, count_forks
from fdbf.procs import fork_stages, shared_empty


def _square_and_pid(x):
    return x * x, os.getpid()


class TestForkMap:
    """One stage of fork_stages: a map, as verify runs it."""

    @pytest.mark.parametrize("workers, n", [
        (1, 7), (2, 7), (3, 7), (8, 7), (3, 2500)])  # 2500: 3 items a block
    def test_results_in_item_order(self, monkeypatch, workers, n):
        forks = count_forks(monkeypatch)
        results = fork_stages([(_square_and_pid, range(n))], workers)[0]
        assert [r for r, _ in results] == [x * x for x in range(n)]
        assert len(forks) == (0 if workers == 1 else min(workers, n))
        assert (os.getpid() in {pid for _, pid in results}) == (workers == 1)
        assert_no_children()

    def test_a_slow_item_does_not_hold_the_rest(self):
        def slow_first(x):
            if x == 0:
                time.sleep(0.5)
            return os.getpid()

        pids = fork_stages([(slow_first, range(20))], 2)[0]
        assert pids[0] not in pids[1:]

    def test_children_write_shared_memory(self):
        out = shared_empty((2, 5), np.int64)

        def fill(i):
            out[:, i] = (i, os.getpid())

        fork_stages([(fill, range(5))], 2)
        assert out[0].tolist() == list(range(5))
        assert os.getpid() not in out[1].tolist()

    def test_the_first_failing_item_raises_its_own_error(self):
        def fail_from_2(x):
            if x >= 2:
                raise KeyError(x)
            return x

        with pytest.raises(KeyError) as exc:
            fork_stages([(fail_from_2, range(6))], 3)
        assert exc.value.args == (2,)
        assert_no_children()

    def test_a_child_that_dies_is_an_error(self):
        def die(x):
            os._exit(3)

        with pytest.raises(ChildProcessError, match="ended without a result"):
            fork_stages([(die, range(4))], 2)
        assert_no_children()

    def test_an_unpicklable_error_arrives_as_its_traceback(self):
        class Local(Exception):
            pass

        def raise_local(x):
            raise Local("cannot be pickled")

        with pytest.raises(RuntimeError, match="Local: cannot be pickled"):
            fork_stages([(raise_local, range(2))], 2)
        assert_no_children()


class TestForkStages:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_each_stage_sees_every_write_of_the_stage_before(self, monkeypatch,
                                                              workers):
        forks = count_forks(monkeypatch)
        out = shared_empty((7,), np.int64)

        def write(i):
            if i == 0:
                time.sleep(0.2)  # the other children finish first
            out[i] = i * i
            return os.getpid()

        def read(i):
            return int(out[6 - i]), os.getpid()

        writers, readers = fork_stages([(write, range(7)), (read, range(7))],
                                       workers)
        assert [v for v, _ in readers] == [(6 - i) ** 2 for i in range(7)]
        # one set of children runs both stages, or the caller runs both
        assert len(forks) == (0 if workers == 1 else workers)
        pids = set(writers) | {pid for _, pid in readers}
        assert (pids == {os.getpid()}) == (workers == 1)
        assert len(pids) <= workers
        assert_no_children()

    def test_a_stage_may_have_fewer_items_than_workers(self, monkeypatch):
        forks = count_forks(monkeypatch)
        first, second = fork_stages([(_square_and_pid, [3]),
                                     (_square_and_pid, range(5))], 2)
        assert [r for r, _ in first] == [9]
        assert [r for r, _ in second] == [x * x for x in range(5)]
        assert len(forks) == 2
        assert fork_stages([(_square_and_pid, []), (_square_and_pid, [])],
                           2) == [[], []]
        assert_no_children()

    def test_a_failed_stage_stops_the_later_ones(self):
        started = shared_empty((1,), np.int64)
        started[0] = 0

        def fail_from_3(x):
            if x >= 3:
                raise KeyError(x)
            return x

        def mark(x):
            started[0] = 1

        with pytest.raises(KeyError) as exc:
            fork_stages([(fail_from_3, range(8)), (mark, range(8))], 2)
        assert exc.value.args == (3,)
        assert started[0] == 0
        assert_no_children()

    def test_a_child_that_dies_in_a_later_stage_is_an_error(self):
        def die(x):
            os._exit(3)

        with pytest.raises(ChildProcessError, match="ended without a result"):
            fork_stages([(_square_and_pid, range(4)), (die, range(4))], 2)
        assert_no_children()


def _loaded(statement):
    """Every module a fresh interpreter holds after running `statement`."""
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; {statement}; print(*sys.modules)"],
        capture_output=True, text=True, env=child_env(), check=True)
    return set(done.stdout.split())


def _fdbf_modules(loaded):
    return {name for name in loaded if name.startswith("fdbf.")}


def test_importing_fdbf_loads_no_process_machinery():
    # its import time would be set-up time of every program that imports fdbf
    assert _fdbf_modules(_loaded("import fdbf")) == set()
    kernels = _loaded("from fdbf import kernels")  # perfbench's set-up
    assert _fdbf_modules(kernels) == {
        "fdbf.numerics", "fdbf.beamform", "fdbf.kernels"}
    assert "statistics" not in kernels
    library = _loaded("import fdbf.experiment, fdbf.oracle")
    assert library.isdisjoint({"fdbf.procs", "fdbf.cli", "multiprocessing"})
    assert "statistics" not in _loaded("import fdbf.cli")
