"""Work split between the calling process and forked children.

Every fork goes through _Child: os.fork with one pipe each way. The
child inherits everything from the fork, and sends up its pipe only
length-prefixed pickles: a result, or its exception, which the parent
raises with its type; an exception that does not survive pickling
arrives as a ChildProcessError holding its type name and message. A
child that dies before it answers, killed by a signal say, shows as end
of file on its pipe: the parent reaps it and raises a ChildProcessError
that names the signal, which the CLI prints as an error line (exit 1).
The parent kills and reaps every child still alive when it is done
with it, and a forked child never forks again.

Two users build on it:

- map_ranges runs fn(*args, start, stop) over ranges that cover 0..n-1
  in order and returns the results in that order. The calling process
  runs the first range itself while one child runs each of the others,
  so two usable CPUs fork one child. Five passes split their images
  this way: batch inference (model.forward_images), `parasnet gen`,
  in-memory generation (synth.gen_dataset), and the baseline's SIFT
  passes in training (classify.train_baseline) and in batch prediction
  (SiftBowClassifier.predict_batch). Each image's work depends only on
  its index, or, in batch inference, on its chunk of
  model.CHUNK_IMAGES, whose bounds every range keeps (unit), so the
  results are the same however the ranges fall. gen
  and gen_dataset walk a split in one order, synth.sample_at, so that
  every range holds every class alike; gen_dataset's children write
  their images straight into one array over a shared mapping made
  before the fork (shared_empty), and send back nothing.
- A Helper is one child that lives as long as a with block and runs
  method calls, by name, on an object it holds from the fork, one pickle
  each way a call. training.fit runs half of every training step's batch
  in one: its augmentation, forward and backward.
"""

from __future__ import annotations

import contextlib
import ctypes
import mmap
import os
import pickle
import signal
import struct
from typing import Callable

import numpy as np

# no range is shorter than this many images. On a 2-core Xeon, at
# 244x324, starting and joining two forked workers cost as much as about
# 6 images each of serial inference, and 16 each ran x1.1-1.2
MIN_IMAGES_PER_SHARD = 16

# set in every forked child, so that a child never forks
_forked = False

_LENGTH = struct.Struct("<Q")

# mallopt's parameter number for the size from which malloc maps memory
_M_MMAP_THRESHOLD = -3


def _threads() -> int:
    """This process's OS threads, or 0 where that cannot be read."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 0


def usable() -> int:
    """The CPUs this process may spread work over by forking: the usable
    CPUs, or 1 in a forked child, where fork is missing, or in a process
    with a second OS thread (multi-threaded BLAS, say), since a lock that
    thread held would stay held in the child. taskset limits them."""
    if _forked or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0)) if _threads() == 1 else 1


def count(n: int) -> int:
    """How many ranges map_ranges splits n items into: one per usable CPU
    with at least MIN_IMAGES_PER_SHARD items each, or 1, the whole run in
    the calling process, unless at least two remain."""
    return max(min(usable(), n // MIN_IMAGES_PER_SHARD), 1)


def _send(fd: int, data: bytes) -> None:
    view = memoryview(_LENGTH.pack(len(data)) + data)
    while view:
        view = view[os.write(fd, view):]


def _read(fd: int, size: int) -> bytes | None:
    """size bytes from fd, or None at end of file before them."""
    chunks = []
    while size:
        chunk = os.read(fd, min(size, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _receive(fd: int) -> bytes | None:
    """The next message on fd, or None at end of file."""
    header = _read(fd, _LENGTH.size)
    return None if header is None else _read(fd, _LENGTH.unpack(header)[0])


def _answer(value) -> bytes:
    return pickle.dumps((True, value), pickle.HIGHEST_PROTOCOL)


def _failure(exc: BaseException) -> bytes:
    try:
        blob = pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
    except Exception:
        blob = None
    return pickle.dumps((False, (type(exc).__name__, str(exc), blob)))


def _outcome(message: bytes):
    """The value a child answered, or its exception raised."""
    ok, value = pickle.loads(message)
    if ok:
        return value
    name, text, blob = value
    try:
        exc = pickle.loads(blob) if blob is not None else None
    except Exception:
        exc = None
    if isinstance(exc, BaseException):
        raise exc
    raise ChildProcessError(f"{name}: {text}")


class _Child:
    """A forked child running body(*args, inbox, outbox), where inbox and
    outbox are its ends of the pipes from and to this process. The child
    exits when body returns; an exception body raises is sent up first."""

    def __init__(self, body: Callable, *args):
        down, up = os.pipe(), os.pipe()
        pid = os.fork()
        if pid == 0:
            global _forked
            _forked = True
            code = 1
            try:
                os.close(down[1])
                os.close(up[0])
                body(*args, down[0], up[1])
                code = 0
            except BaseException as exc:
                # reported, not raised: a child must never return into the
                # parent's code, so it always leaves through os._exit
                try:
                    _send(up[1], _failure(exc))
                except Exception:
                    pass
            finally:
                os._exit(code)
        os.close(down[0])
        os.close(up[1])
        self.pid: int | None = pid
        self._to, self._from = down[1], up[0]

    def send(self, data: bytes) -> None:
        try:
            _send(self._to, data)
        except BrokenPipeError:
            self._died()

    def message(self) -> bytes:
        """The child's next message; a ChildProcessError if it died first."""
        message = _receive(self._from)
        if message is None:
            self._died()
        return message

    def receive(self):
        """The child's next answer, or its exception raised."""
        return _outcome(self.message())

    def _died(self):
        pid = self.pid
        _, status = os.waitpid(pid, 0)
        self.pid = None
        if os.WIFSIGNALED(status):
            number = os.WTERMSIG(status)
            try:
                how = f"was killed by {signal.Signals(number).name}"
            except ValueError:
                how = f"was killed by signal {number}"
        else:
            how = f"exited with status {os.waitstatus_to_exitcode(status)}"
        raise ChildProcessError(f"forked child {pid} {how} before it answered")

    def close(self) -> None:
        """Kill the child if it is still alive, reap it and close the
        pipes; a second call does nothing."""
        if self.pid is not None:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(self.pid, 0)
            self.pid = None
        for fd in (self._to, self._from):
            if fd >= 0:
                os.close(fd)
        self._to = self._from = -1


def _run_range(fn: Callable, args: tuple, start: int, stop: int, inbox: int, outbox: int):
    _send(outbox, _answer(fn(*args, start, stop)))


def map_ranges(fn: Callable, args: tuple, n: int, unit: int = 1) -> list:
    """[fn(*args, start, stop) for each range] over count(n) contiguous
    ranges that cover 0..n-1 in order, or over one per unit of items if
    that is fewer: every bound but n is a multiple of unit.

    The calling process runs the first range while forked children run
    the rest. The children live only for this call, and are killed and
    reaped however it ends.
    """
    units = -(-n // unit)
    ranges = max(min(count(n), units), 1)
    bounds = [(min(units * k // ranges * unit, n), min(units * (k + 1) // ranges * unit, n))
              for k in range(ranges)]
    if ranges == 1:
        return [fn(*args, 0, n)]
    children: list[_Child] = []
    try:
        for start, stop in bounds[1:]:
            children.append(_Child(_run_range, fn, args, start, stop))
        results = [fn(*args, *bounds[0])]
        results += [child.receive() for child in children]
    finally:
        for child in children:
            child.close()
    return results


def shared_empty(shape, dtype) -> np.ndarray:
    """An uninitialised array over its own anonymous MAP_SHARED mapping:
    made before a fork, it takes every write a forked child makes to it,
    so a child can fill its range of the array in place. The mapping is
    unmapped once the array and its views are gone."""
    dtype = np.dtype(dtype)
    size = int(np.prod(shape))
    mapping = mmap.mmap(-1, max(size * dtype.itemsize, 1))
    return np.frombuffer(mapping, dtype, size).reshape(shape)


# the argument types of the glibc malloc functions _glibc calls
_GLIBC_ARGTYPES = {"malloc_trim": [ctypes.c_size_t], "mallopt": [ctypes.c_int, ctypes.c_int]}


def _glibc(name: str, *args) -> None:
    """Call glibc's malloc function name, where there is one."""
    try:
        fn = getattr(ctypes.CDLL(None), name)
    except (OSError, AttributeError):
        return
    fn.argtypes, fn.restype = _GLIBC_ARGTYPES[name], ctypes.c_int
    fn(*args)


def _serve(target, inbox: int, outbox: int) -> None:
    """The helper's loop: run each method call of target the parent sends
    and answer it, until the parent closes its end of the pipe."""
    # keep the kernels' temporaries in the heap: glibc maps each one over
    # 128 KB afresh by default, and this process, which has freed none
    # yet, would fault on every page of every one
    _glibc("mallopt", _M_MMAP_THRESHOLD, 32 << 20)
    while (message := _receive(inbox)) is not None:
        try:
            name, args = pickle.loads(message)
            answer = _answer(getattr(target, name)(*args))
        except Exception as exc:
            answer = _failure(exc)
        _send(outbox, answer)


class Helper:
    """One forked child that holds target, as this process held it at the
    fork, and runs its methods for this process for as long as a with
    block. The child is pinned to a usable CPU of its own (see apart).

    submit sends a method's name and its arguments down a pipe as one
    pickle, and result returns the next answer, a pickle too, or raises
    the call's exception; the child lives on after a call that raised.
    Whatever the calls need and do not send, such as a training set, the
    child has from the fork. Construct it only where usable() > 1.
    """

    def __init__(self, target):
        # give the heap's free pages back before the fork, so that neither
        # process keeps them resident
        _glibc("malloc_trim", 0)
        self._child = _Child(_serve, target)
        cpus = sorted(os.sched_getaffinity(0))
        # the usable CPUs, and the one the helper is pinned to (see apart)
        self._cpus, self._cpu = set(cpus), None
        if len(cpus) > 1:
            try:
                os.sched_setaffinity(self._child.pid, {cpus[1]})
                self._cpu = cpus[1]
            except OSError:
                pass

    def __enter__(self) -> "Helper":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Kill and reap the helper."""
        self._child.close()

    def submit(self, method: str, *args) -> None:
        """Start target.method(*args) in the helper."""
        self._child.send(pickle.dumps((method, args), pickle.HIGHEST_PROTOCOL))

    def result(self):
        """The value of the oldest call not yet answered, or its exception
        raised; a ChildProcessError if the helper died."""
        return self._child.receive()


@contextlib.contextmanager
def apart(helper: Helper | None):
    """Keep this process off the helper's CPU inside the block.

    The helper is pinned to one usable CPU for its life; this process
    keeps the others only inside the block, so that work outside it,
    such as map_ranges, still sees every usable CPU. A training step
    hands the helper two calls, its half's forward and backward: on a
    2-CPU KVM guest, in 4 interleaved rounds of three 1-epoch fits of
    96 images, a step took 57.8 ms (median) with this process kept off
    the helper's CPU, against 63.8 ms with the helper alone pinned and
    62.2 ms with neither, and it was the faster in 4 and 3 of the 4
    rounds."""
    if helper is None or helper._cpu is None:
        yield
        return
    os.sched_setaffinity(0, helper._cpus - {helper._cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, helper._cpus)
