import hashlib
import math
import multiprocessing
import os
import subprocess
from pathlib import Path

import numpy as np
import pytest

import fdbf
from fdbf.channel import ChannelRealization, ricean_params
from fdbf.numerics import box_muller


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


def philox_generator(seed, stream):
    """A new numpy Generator at the start of stream (seed, stream): the
    stream contract itself. The key is built as uint64, as a list mixing
    ints below and above 2**63 would reach numpy as floats."""
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def contract_realization(cfg, seed, stream, redraws=0):
    """(h_u, h_d, H, v) of stream (seed, stream) at cfg's n_t and n_r, by
    the stream contract itself: a new Generator at the stream's start,
    read as h_u, h_d, H (row-major), each k entries taking k uniforms U as
    u1 = 1 - U and then k as u2, joined by numerics.box_muller into z and
    scaled to mean + std z (0 and 1, and H's Ricean mean and std), and
    v = h_u / ||h_u||. `redraws` all-zero h_u come first, as on a stream
    whose first h_u words are 0: each is dropped with its 2 n_r words, and
    h_u is drawn again after it."""
    gen = philox_generator(seed, stream)

    def gaussian(k, mean=0.0, std=1.0):
        u1 = 1.0 - gen.random(k)
        return complex(mean) + float(std) * box_muller(u1, gen.random(k))

    gen.random(2 * cfg.n_r * redraws)
    h_u = gaussian(cfg.n_r)
    h_d = gaussian(cfg.n_t)
    H = gaussian(cfg.n_r * cfg.n_t, *ricean_params(cfg.k_factor_db, cfg.omega_db))
    v = h_u / math.sqrt(np.vdot(h_u, h_u).real)
    return h_u, h_d, H.reshape(cfg.n_r, cfg.n_t), v


def refuse_new_generators(monkeypatch):
    """Make constructing a numpy Philox or Generator fail from here on."""
    def refuse(*args, **kwargs):
        raise AssertionError("a new Philox or Generator was made")

    monkeypatch.setattr(np.random, "Philox", refuse)
    monkeypatch.setattr(np.random, "Generator", refuse)


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
