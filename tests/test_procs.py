import os
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import assert_no_children, child_env, count_forks
from fdbf.procs import fork_map, shared_empty


def _square_and_pid(x):
    return x * x, os.getpid()


class TestForkMap:
    @pytest.mark.parametrize("workers, n", [
        (1, 7), (2, 7), (3, 7), (8, 7), (3, 2500)])  # 2500: 3 items a block
    def test_results_in_item_order(self, monkeypatch, workers, n):
        forks = count_forks(monkeypatch)
        results = fork_map(_square_and_pid, range(n), workers)
        assert [r for r, _ in results] == [x * x for x in range(n)]
        assert len(forks) == (0 if workers == 1 else min(workers, n))
        assert (os.getpid() in {pid for _, pid in results}) == (workers == 1)
        assert_no_children()

    def test_a_slow_item_does_not_hold_the_rest(self):
        def slow_first(x):
            if x == 0:
                time.sleep(0.5)
            return os.getpid()

        pids = fork_map(slow_first, range(20), 2)
        assert pids[0] not in pids[1:]

    def test_children_write_shared_memory(self):
        out = shared_empty((2, 5), np.int64)

        def fill(i):
            out[:, i] = (i, os.getpid())

        fork_map(fill, range(5), 2)
        assert out[0].tolist() == list(range(5))
        assert os.getpid() not in out[1].tolist()

    def test_the_first_failing_item_raises_its_own_error(self):
        def fail_from_2(x):
            if x >= 2:
                raise KeyError(x)
            return x

        with pytest.raises(KeyError) as exc:
            fork_map(fail_from_2, range(6), 3)
        assert exc.value.args == (2,)
        assert_no_children()

    def test_a_child_that_dies_is_an_error(self):
        def die(x):
            os._exit(3)

        with pytest.raises(ChildProcessError, match="ended without a result"):
            fork_map(die, range(4), 2)
        assert_no_children()

    def test_an_unpicklable_error_arrives_as_its_traceback(self):
        class Local(Exception):
            pass

        def raise_local(x):
            raise Local("cannot be pickled")

        with pytest.raises(RuntimeError, match="Local: cannot be pickled"):
            fork_map(raise_local, range(2), 2)
        assert_no_children()


def test_importing_fdbf_loads_no_process_machinery():
    # its import time would be set-up time of every program that imports fdbf
    done = subprocess.run(
        [sys.executable, "-c", "import sys, fdbf; print(sorted(sys.modules.keys()"
         " & {'fdbf.procs', 'fdbf.cli', 'multiprocessing'}))"],
        capture_output=True, text=True, env=child_env(), check=True)
    assert done.stdout.strip() == "[]"
