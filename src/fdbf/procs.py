"""Process policies of the `fdbf` command, and the one fork-based map.

  keep_freed_memory        freed memory stays in the C heap (glibc mallopt)
  hold_blas_to_one_thread  every loaded OpenBLAS runs on one thread
  worker_count             processes a command may run on
  fork_stages              stages of [fn(x) for x in items] on one set of
                           forked processes
  fork_map                 one such stage
  shared_empty             an array forked processes write into

The first two change the whole process, so only `cli.main` calls them:
importing `fdbf` changes nothing. `heap` and `blas` record what they did,
for the manifest.
"""

import ctypes
import math
import mmap
import os
import pickle
import signal
import threading
import traceback

import numpy as np

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

# "kept" or "default" once keep_freed_memory has run. The allocator's
# settings belong to the whole process, so this does too.
heap = None


def keep_freed_memory():
    """Make the C allocator keep the memory this process frees; once.

    glibc returns freed numpy temporaries to the kernel and faults them in
    again for the next verify instance: about 370k minor page faults per
    1000 instances. A fixed trim and mmap threshold keep them in the heap.
    Setting either turns off glibc's dynamic thresholds, so both are set.
    A no-op where the C library has no mallopt, or rejects a value.
    """
    global heap
    if heap is not None:
        return
    heap = "default"
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        # no C library to open (Windows has no dlopen(NULL)), or no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # serve blocks below 32 MiB (the largest threshold glibc accepts on
    # 64-bit) from the heap, not mmap, and keep up to 1 GiB of it when freed
    if (mallopt(_M_MMAP_THRESHOLD, 32 << 20)
            and mallopt(_M_TRIM_THRESHOLD, 1 << 30)):
        heap = "kept"


# "one thread" or "default" once hold_blas_to_one_thread has run. The
# BLAS thread count belongs to the whole process, so this does too.
blas = None

# the (set, get) thread-count functions of each OpenBLAS build numpy may
# load: numpy's own wheels bundle scipy-openblas with 64- or 32-bit integers,
# other builds link a system OpenBLAS
_OPENBLAS_THREADS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


class _PhdrInfo(ctypes.Structure):
    # the leading fields of struct dl_phdr_info (link.h)
    _fields_ = (("addr", ctypes.c_void_p), ("name", ctypes.c_char_p))


_PHDR_CALLBACK = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.POINTER(_PhdrInfo),
                                  ctypes.c_size_t, ctypes.c_void_p)


def loaded_libraries():
    """Paths of the shared objects loaded into this process."""
    names = []

    @_PHDR_CALLBACK
    def collect(info, size, data):
        names.append(info.contents.name)
        return 0

    iterate = ctypes.CDLL(None).dl_iterate_phdr
    iterate.argtypes = (_PHDR_CALLBACK, ctypes.c_void_p)
    iterate.restype = ctypes.c_int
    iterate(collect, None)
    return [os.fsdecode(name) for name in names if name]


def hold_blas_to_one_thread():
    """Set every OpenBLAS loaded into this process to one thread; once.

    OpenBLAS runs numpy's matrix products on one thread per CPU. On the
    grid oracle's products that doubles the CPU time for about 6% less wall
    time, and under forked workers each worker's threads fight the others'
    for the same CPUs: on 2 vCPUs, two verify workers took 5.7-5.8 s for a
    1000-instance run that one process took 2.7-3.5 s for. The result is
    "one thread" only if an OpenBLAS was found and reports one thread
    afterwards; anywhere else (no dl_iterate_phdr, a BLAS other than
    OpenBLAS) it is "default", and every command runs serially.
    """
    global blas
    if blas is not None:
        return
    blas = "default"
    try:
        paths = loaded_libraries()
    except (OSError, TypeError, AttributeError):
        # no C library to open, or no dl_iterate_phdr in it
        return
    capped = []
    for path in paths:
        if "openblas" not in os.path.basename(path):
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREADS:
            set_threads = getattr(lib, set_name, None)
            get_threads = getattr(lib, get_name, None)
            if set_threads is None or get_threads is None:
                continue
            set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
            get_threads.argtypes, get_threads.restype = (), ctypes.c_int
            set_threads(1)
            capped.append(get_threads() == 1)
            break
    if capped and all(capped):
        blas = "one thread"


def worker_count(tasks):
    """Processes a command with `tasks` independent tasks may run on.

    One per CPU this process may run on (its affinity mask, so `taskset -c
    0` makes the run serial), and at most one per task. One, so the run is
    serial, where the BLAS is not held to one thread (see
    hold_blas_to_one_thread), where there is no fork or affinity mask, or
    where another thread runs: a forked child gets copies of the locks that
    thread holds, and nobody to release them.
    """
    if (blas != "one thread" or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return min(tasks, len(os.sched_getaffinity(0)))


def shared_empty(shape, dtype=np.float64):
    """An uninitialized array in anonymous shared memory.

    What a child of fork_map writes into it, the caller reads: results
    too large to send back through a pipe pass through it. Anonymous mmap
    pages are not on the C heap, so tracemalloc does not see them.
    """
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    buffer = mmap.mmap(-1, max(1, count * dtype.itemsize))
    return np.frombuffer(buffer, dtype, count).reshape(shape)


# blocks of items a stage's queue holds: 4-byte block indices that fit in
# one page, which a pipe holds before any child reads it, and which one
# write puts there at once
_QUEUE_SLOTS = 1024


def _blocks(count):
    """(items a block, blocks) of a stage of `count` items."""
    size = max(1, -(-count // _QUEUE_SLOTS))
    return size, -(-count // size)


def _fill(fill, count):
    """Put the block indices of a stage of `count` items on its queue
    through the queue's write end, and close it, so the queue ends."""
    with open(fill, "wb") as out:
        out.write(b"".join(k.to_bytes(4, "little")
                           for k in range(_blocks(count)[1])))


def _child(stages, queues, fills, reply_end):
    """Body of a forked worker: for each stage, run fn on each block of
    items whose index it reads from the stage's queue until the queue ends,
    and send {item index: result}, or the failing index and what it raised,
    length first, through the reply pipe; stop after a failed stage; never
    return.
    """
    status = 1
    try:
        for fill in fills:  # a queue ends once no process holds its write end
            os.close(fill)
        with os.fdopen(reply_end, "wb") as out:
            for (fn, items), queue in zip(stages, queues):
                size = _blocks(len(items))[0]
                results, i = {}, -1  # -1: failed before its first item
                try:
                    while record := os.read(queue, 4):
                        first = int.from_bytes(record, "little") * size
                        for i in range(first, min(first + size, len(items))):
                            results[i] = fn(items[i])
                    reply = (True, results)
                except BaseException as exc:  # re-raised in the caller
                    reply = (False, (i, exc))
                try:
                    data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
                except Exception as exc:  # send what cannot be pickled as text
                    failed = exc if reply[0] else reply[1][1]
                    reply = (False, (i, RuntimeError(
                        "".join(traceback.format_exception(failed)))))
                    data = pickle.dumps(reply)
                out.write(len(data).to_bytes(8, "little") + data)
                out.flush()
                if not reply[0]:
                    break
        status = 0
    finally:
        # skip the exit handlers and buffers this process shares with its parent
        os._exit(status)


def fork_stages(stages, workers=1):
    """[[fn(x) for x in items] for fn, items in stages], on `workers`
    forked processes, one set for every stage.

    A child is forked for each worker while the caller waits, and the same
    children run every stage in turn. For each stage they take the items in
    order, a block at a time, from a queue, so a child on a slower CPU takes
    fewer. The caller fills the first stage's queue before forking, and
    each later stage's only once every child has replied for the one
    before, so a stage may read what the stages before it wrote into
    shared_empty arrays. fn and the items reach the children by fork, never
    by pickle; only the results come back, pickled through a pipe, and the
    caller puts each stage's in item order: they do not depend on
    `workers`. With one worker, or at most one item in every stage, this is
    the plain loops in the caller. An exception fn raises in a child
    reaches the caller with its own type; where several items of a stage
    failed, the first one's; and no later stage starts. A child that ends
    without replying is a ChildProcessError. No child outlives the call.
    Take `workers` from worker_count(): forking under other threads is
    unsafe.
    """
    stages = [(fn, list(items)) for fn, items in stages]
    n = min(workers, max((len(items) for _, items in stages), default=0))
    if n <= 1:
        return [[fn(x) for x in items] for fn, items in stages]
    queues, fills = zip(*(os.pipe() for _ in stages))  # read, write ends
    fills = dict(enumerate(fills))  # until filled
    children = {}  # pid: read end of its reply pipe, until reaped
    try:
        _fill(fills.pop(0), len(stages[0][1]))
        for _ in range(n):
            read_end, reply_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(stages, queues, list(fills.values()), reply_end)
            os.close(reply_end)
            children[pid] = open(read_end, "rb")
        out = []
        for k, (_, items) in enumerate(stages):
            if k:
                _fill(fills.pop(k), len(items))
            results = [None] * len(items)
            failed = []
            for pid, pipe in list(children.items()):
                head = pipe.read(8)
                length = int.from_bytes(head, "little")
                data = pipe.read(length)
                if len(head) < 8 or len(data) < length:
                    _, status = os.waitpid(pid, 0)
                    children.pop(pid).close()
                    raise ChildProcessError(
                        f"worker process {pid} ended without a result "
                        f"(wait status {status})")
                ok, value = pickle.loads(data)
                if ok:
                    for i, result in value.items():
                        results[i] = result
                else:
                    failed.append(value)
            if failed:
                raise min(failed, key=lambda f: f[0])[1]
            out.append(results)
        for pid in list(children):
            os.waitpid(pid, 0)
            children.pop(pid).close()
        return out
    finally:
        for fd in (*queues, *fills.values()):
            os.close(fd)
        for pid, pipe in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()


def fork_map(fn, items, workers=1):
    """[fn(x) for x in items]: fork_stages with one stage."""
    return fork_stages([(fn, items)], workers)[0]
