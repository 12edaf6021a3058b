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
  its index, so the results are the same however the ranges fall. gen
  and gen_dataset walk a split in one order, synth.sample_at, so that
  every range holds every class alike; gen_dataset's children write
  their images straight into one array over a shared mapping made
  before the fork (shared_empty), and send back nothing.
- A Helper is one child that lives as long as a with block and runs
  calls for the parent over arrays in an anonymous shared mapping (the
  arena) made before the fork; split and beside hand it part of a
  kernel's work. training.fit splits every training step with one.
"""

from __future__ import annotations

import bisect
import contextlib
import ctypes
import mmap
import os
import pickle
import select
import signal
import time
import struct
from typing import Callable

import numpy as np

# no range is shorter than this many images. On a 2-core Xeon, at
# 244x324, starting and joining two forked workers cost as much as about
# 6 images each of serial inference, and 16 each ran x1.1-1.2
MIN_IMAGES_PER_SHARD = 16

# arena arrays start on a cache line
ALIGN = 64

# an array that is neither in a Helper's arena nor inherited goes to the
# helper by value (a layer's conv kernels, say) only up to this size
SEND_LIMIT = 1 << 20

# a Helper polls its pipe this many seconds after each call before it
# sleeps on it: on a 2-CPU KVM guest a call reached a busy helper in
# 36-40 us and one that had slept 2 ms in 137-145 us (medians), a step
# makes about 15 calls, and polling made fit epochs 4-13% faster in 4
# interleaved rounds
HELPER_SPIN = 0.003

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


def _receive(fd: int, spin: float = 0.0) -> bytes | None:
    """The next message on fd, or None at end of file. With spin, poll fd
    for up to that many seconds before sleeping on it."""
    end = time.perf_counter() + spin
    while time.perf_counter() < end and not select.select([fd], [], [], 0)[0]:
        pass
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


def map_ranges(fn: Callable, args: tuple, n: int) -> list:
    """[fn(*args, start, stop) for each range] over count(n) contiguous
    ranges that cover 0..n-1 in order.

    The calling process runs the first range while forked children run
    the rest. The children live only for this call, and are killed and
    reaped however it ends.
    """
    ranges = count(n)
    bounds = [(n * k // ranges, n * (k + 1) // ranges) for k in range(ranges)]
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


def aligned(nbytes: int) -> int:
    """nbytes rounded up to a whole number of ALIGN-byte lines."""
    return -(-nbytes // ALIGN) * ALIGN


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


class _Block:
    """Arena bytes [start, start + size) lent to the array made from it:
    numpy keeps this object as the array's base, and it gives the bytes
    back once the array and every view of it are gone."""

    def __init__(self, helper: "Helper", start: int, size: int, shape, dtype: np.dtype):
        self._helper, self._start, self._size = helper, start, size
        self.__array_interface__ = {
            "data": (helper._address + start, False),
            "shape": tuple(shape),
            "typestr": dtype.str,
            "version": 3,
        }

    def __del__(self):
        # only queued: a garbage collection inside Helper._take may run this
        self._helper._returned.append((self._start, self._size))


class _Ref(tuple):
    """Stands for an argument the helper already has: ("arena", offset,
    shape, strides, dtype) for an arena array, ("inherited", k) for the
    k-th inherited object."""


def _resolve(arg, arena: mmap.mmap, inherited: tuple):
    if not isinstance(arg, _Ref):
        return arg
    if arg[0] == "inherited":
        return inherited[arg[1]]
    _, offset, shape, strides, dtype = arg
    return np.ndarray(shape, dtype, buffer=arena, offset=offset, strides=strides)


def _serve(arena: mmap.mmap, inherited: tuple, inbox: int, outbox: int) -> None:
    """The helper's loop: run each call the parent sends and answer it,
    until the parent closes its end of the pipe."""
    # keep the kernels' temporaries in the heap: glibc maps each one over
    # 128 KB afresh by default, and this process, which has freed none
    # yet, would fault on every page of every one (about 1,500 faults a
    # training step at 244x324, F=8, against 300 with this)
    _glibc("mallopt", _M_MMAP_THRESHOLD, 32 << 20)
    while (message := _receive(inbox, HELPER_SPIN)) is not None:
        try:
            fn, args = pickle.loads(message)
            fn(*(_resolve(arg, arena, inherited) for arg in args))
            answer = _answer(None)
        except Exception as exc:
            answer = _failure(exc)
        _send(outbox, answer)


class Helper:
    """One forked child that runs calls for this process, for as long as
    a with block, over arrays in an arena: an anonymous MAP_SHARED
    mapping of nbytes made before the fork, so both processes see every
    write to it.

    empty lends arena arrays; an array gives its bytes back when it and
    its views are gone, and the lowest free bytes are lent first, so the
    pages in use stay those of the arrays alive at once. When the arena
    has no room it returns a private array, which the helper cannot
    write, and split and beside then keep the work in this process.

    submit sends fn and args down a pipe as one pickle: arguments that
    are arena arrays or inherited objects, which the child has from the
    fork, go as references, anything else by value. wait blocks until
    the helper has answered every call submitted. Construct it only where
    usable() > 1.
    """

    def __init__(self, nbytes: int, inherited: tuple = ()):
        # arrays that now live in the arena would otherwise have reused
        # the heap's freed chunks: give their pages back first, so that the
        # arena's pages replace them in this process's resident memory
        _glibc("malloc_trim", 0)
        self._arena = mmap.mmap(-1, max(nbytes, ALIGN))
        self._address = np.frombuffer(self._arena, np.uint8).ctypes.data
        self._free = [(0, len(self._arena))]
        self._returned: list[tuple[int, int]] = []
        self._keep = inherited
        self._inherited = {id(obj): k for k, obj in enumerate(inherited)}
        self._pending: list[tuple] = []
        self._child = _Child(_serve, self._arena, inherited)
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
        """Kill and reap the helper; the arena lives on while any of its
        arrays does."""
        self._pending = []
        self._child.close()

    def _take(self, size: int) -> int | None:
        while self._returned:
            self._give(*self._returned.pop())
        size = aligned(size)
        for k, (start, length) in enumerate(self._free):
            if length >= size:
                self._free[k:k + 1] = [(start + size, length - size)] if length > size else []
                return start
        return None

    def _give(self, start: int, size: int) -> None:
        size = aligned(size)
        k = bisect.bisect(self._free, (start, 0))
        if k < len(self._free) and self._free[k][0] == start + size:
            size += self._free.pop(k)[1]
        if k and sum(self._free[k - 1]) == start:
            k -= 1
            start, size = self._free[k][0], self._free.pop(k)[1] + size
        self._free.insert(k, (start, size))

    def empty(self, shape, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        size = int(np.prod(shape)) * dtype.itemsize
        start = self._take(size) if size else None
        if start is None:
            return np.empty(shape, dtype)
        return np.asarray(_Block(self, start, size, shape, dtype))

    def holds(self, a: np.ndarray) -> bool:
        """Whether a is an arena array or a view of one."""
        while isinstance(a, np.ndarray):
            a = a.base
        return isinstance(a, _Block) and a._helper is self

    def takes(self, args: tuple, writes: tuple) -> bool:
        """Whether the helper can run a call on args that writes the
        arrays in writes: they lie in the arena, and every other array
        lies in it, is inherited, or is small enough to send."""
        return all(self.holds(a) for a in writes) and all(
            a.nbytes <= SEND_LIMIT or id(a) in self._inherited or self.holds(a)
            for a in args if isinstance(a, np.ndarray)
        )

    def submit(self, fn: Callable, *args) -> None:
        """Start fn(*args) in the helper; fn must be importable by name."""
        refs = tuple(self._ref(arg) for arg in args)
        # the arrays stay alive, so their bytes are not lent again, until
        # the helper has answered
        self._pending.append(args)
        self._child.send(pickle.dumps((fn, refs), pickle.HIGHEST_PROTOCOL))

    def _ref(self, arg):
        """arg as the helper is sent it: a _Ref for an arena array or an
        inherited object, itself for anything else."""
        if id(arg) in self._inherited:
            return _Ref(("inherited", self._inherited[id(arg)]))
        if isinstance(arg, np.ndarray) and self.holds(arg):
            offset = arg.__array_interface__["data"][0] - self._address
            return _Ref(("arena", offset, arg.shape, arg.strides, arg.dtype))
        return arg

    def wait(self) -> None:
        """Block until every submitted call has returned; raise the first
        one's exception, or a ChildProcessError if the helper died."""
        pending, self._pending = self._pending, []
        failure = None
        for _ in pending:
            message = self._child.message()
            try:
                _outcome(message)
            except Exception as exc:
                failure = failure or exc
        if failure is not None:
            raise failure


@contextlib.contextmanager
def apart(helper: Helper | None):
    """Keep this process off the helper's CPU inside the block.

    The helper is pinned to one usable CPU for its life; this process
    keeps the others only inside the block, so that work outside it,
    such as map_ranges, still sees every usable CPU. Unpinned, the two
    often ran on one CPU, as if Linux woke the helper where the pipe's
    writer ran: on a 2-CPU KVM guest, layer 1's split pool forward took
    5.1-7.2 ms unpinned, like its 3.6-9.1 ms serially, and 3.2-4.5 ms
    pinned."""
    if helper is None or helper._cpu is None:
        yield
        return
    os.sched_setaffinity(0, helper._cpus - {helper._cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, helper._cpus)


def empty(helper: Helper | None, shape, dtype) -> np.ndarray:
    """np.empty(shape, dtype), in the helper's arena when there is one."""
    return np.empty(shape, dtype) if helper is None else helper.empty(shape, dtype)


def zeros(helper: Helper | None, shape, dtype) -> np.ndarray:
    out = empty(helper, shape, dtype)
    out[...] = 0
    return out


def beside(helper: Helper | None, theirs: tuple, mine: tuple) -> None:
    """Run two independent calls, theirs given as (fn, args, writes) and
    mine as (fn, args): the helper runs theirs while this process runs
    mine, when the helper can take it; otherwise this process runs both,
    theirs first."""
    fn, args, writes = theirs
    if helper is None or not helper.takes(args, writes):
        fn(*args)
        mine[0](*mine[1])
        return
    helper.submit(fn, *args)
    mine[0](*mine[1])
    helper.wait()


def split(helper: Helper | None, fn: Callable, args: tuple, items, writes: tuple) -> None:
    """fn(*args, items) with the items shared out: this process runs the
    first half, rounded up, while the helper runs the rest, which it can
    start only after a pipe round trip. fn must give the same result for
    the items in two parts as for all of them at once."""
    half = (len(items) + 1) // 2
    if half == len(items) or helper is None or not helper.takes(args, writes):
        fn(*args, items)
        return
    helper.submit(fn, *args, items[half:])
    fn(*args, items[:half])
    helper.wait()
