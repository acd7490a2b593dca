import hashlib
import math
import multiprocessing
import os
import subprocess
from pathlib import Path

import numpy as np
import pytest

import fdbf
from fdbf.channel import ChannelRealization


def _tracked_digests(root):
    """SHA-256 of every file git tracks under root; None outside a checkout."""
    try:
        listed = subprocess.run(["git", "ls-files", "-z"], cwd=root, check=True,
                                capture_output=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    digests = {}
    for name in filter(None, listed.decode().split("\0")):
        path = root / name
        digests[name] = (hashlib.sha256(path.read_bytes()).hexdigest()
                         if path.is_file() else None)
    return digests


@pytest.fixture(scope="session", autouse=True)
def _tracked_files_unchanged():
    """Fail the session if any test rewrote a file git tracks."""
    root = Path(__file__).resolve().parents[1]
    before = _tracked_digests(root)
    yield
    if before is None:
        return
    after = _tracked_digests(root) or {}
    changed = sorted(name for name, digest in before.items()
                     if after.get(name) != digest)
    if changed:
        pytest.fail(f"tests changed tracked files: {', '.join(changed)}")


def child_env(**extra):
    """Environment for a child interpreter that must import this fdbf.

    pytest's `pythonpath` setting reaches only this process, so the package
    directory is put on the child's PYTHONPATH explicitly.
    """
    src = str(Path(fdbf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path, **extra}


def count_forks(monkeypatch):
    """A list that gets one entry for each os.fork this process makes."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def assert_no_children():
    """No worker process is left running, nor left to be reaped."""
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def canonical_realization(epsilon=0.1):
    """The worked 2-antenna instance used across the suite.

    v = (1), H = [[1, 0]], h_d = (1, 1)/sqrt(2): the leakage direction is
    the first axis, the downlink channel sits at 45 degrees, and with
    epsilon = 0.1 the known optimum is alpha = 2/3, w = (1, 3)/sqrt(10),
    si = 0.1, dl_gain = 0.8 (MRT 1.0, ZF 0.5).
    """
    v = np.array([1.0 + 0j])
    H = np.array([[1.0 + 0j, 0.0 + 0j]])
    h_d = np.array([1.0 + 0j, 1.0 + 0j]) / math.sqrt(2.0)
    return ChannelRealization(h_u=v.copy(), h_d=h_d, H=H, v=v, epsilon=epsilon)


@pytest.fixture
def canonical():
    return canonical_realization()


def random_instance(rng, n_t=None, n_r=None, eps=None):
    """One random problem instance (h_d, H, v, eps) with unit-norm v."""
    n_t = n_t or int(rng.integers(1, 9))
    n_r = n_r or int(rng.integers(1, 5))
    h_d = rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t)
    H = (rng.standard_normal((n_r, n_t)) + 1j * rng.standard_normal((n_r, n_t))) * 0.03
    v = rng.standard_normal(n_r) + 1j * rng.standard_normal(n_r)
    v = v / np.linalg.norm(v)
    if eps is None:
        eps = 10.0 ** rng.uniform(-6.0, -1.0)
    return h_d, H, v, eps
