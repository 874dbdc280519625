"""An ordered map over independent units of work, one forked worker per CPU.

``ordered_map(fn, units)`` yields ``fn(unit)`` for each unit, in unit
order.  Where this process may run on more than one CPU it forks one
worker per CPU, at most one per unit, and hands the units out in order,
each to the next idle worker.  A worker inherits the parent's memory at
the fork, so neither ``fn`` nor the arrays it reads are pickled: a unit
goes out as its index, and its result, or the exception it raised, comes
back pickled through the worker's pipe.  A worker runs the arithmetic
the parent would on the same inherited arrays, so every result has the
bits of an in-process call.  A unit's exception is raised in the
parent at the unit's turn, with its type, message and attributes.

A unit whose worker dies before reporting it, or whose outcome cannot
cross the pipe, runs again in the parent.  Closing the generator (see
``contextlib.closing``) or an error raised out of it ends every worker:
an idle one exits when its task pipe closes, a busy one is killed, and
each is reaped.  Workers leave through ``os._exit``, so no atexit
handler, stream flush or collector teardown of the parent runs in them.

With one CPU, one unit, or no ``os.sched_getaffinity`` (macOS), ``fn``
runs in this process.

Workers fork rather than spawn so that they share the parent's arrays
without a copy or a second import.  A fork copies only the calling
thread, which is safe here: the package starts no thread, and numpy's
OpenBLAS shuts its own thread pool down before a fork
(``pthread_atfork``), so no worker inherits a lock another thread held.
"""

import os
import pickle
import select
import signal
import struct

# a unit's index, parent to worker; an outcome's pickled size, back
_WORD = struct.Struct("<Q")


def cpu_count() -> int:
    """The CPUs this process may run on; 1 where the OS does not say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def ordered_map(fn, units):
    """``fn(unit)`` for each of ``units``, in order (module docstring)."""
    units = list(units)
    workers = min(cpu_count(), len(units))
    if workers < 2:
        yield from map(fn, units)
        return
    pool = _Pool(fn, units)
    try:
        pool.start(workers)
        for i in range(len(units)):
            ok, value = pool.outcome(i)
            if not ok:
                raise value
            yield value
    finally:
        pool.close()


def _call(fn, unit):
    """(True, result) or (False, the exception ``fn`` raised)."""
    try:
        return True, fn(unit)
    except Exception as exc:  # noqa: BLE001 - raised in the parent
        return False, exc


def _read(fd, n) -> bytes:
    """``n`` bytes of ``fd``, or fewer at its end."""
    chunks = []
    while n:
        chunk = os.read(fd, n)
        if not chunk:
            break
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _write(fd, data):
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _serve(fn, units, tasks, results):
    """A worker's loop: run each unit whose index arrives on ``tasks``
    and write its pickled outcome to ``results``, until ``tasks`` ends.
    An outcome that does not pickle ends the worker unreported."""
    while len(head := _read(tasks, _WORD.size)) == _WORD.size:
        body = pickle.dumps(_call(fn, units[_WORD.unpack(head)[0]]),
                            pickle.HIGHEST_PROTOCOL)
        _write(results, _WORD.pack(len(body)) + body)


class _Worker:
    def __init__(self, pid, tasks, results):
        self.pid, self.tasks, self.results = pid, tasks, results
        self.unit = None   # the index of the unit it runs


class _Pool:
    """The workers of one ``ordered_map`` and the outcomes not yet
    yielded.  A live worker always holds a unit; one left without a
    unit, or dead, has its pipes closed and waits to be reaped."""

    def __init__(self, fn, units):
        self.fn, self.units = fn, units
        self.next = 0        # the first unit not yet handed out
        self.done = {}       # unit index -> (ok, value)
        self.live = {}       # results fd -> worker
        self.ended = []
        self.poll = select.poll()

    def start(self, workers):
        """Fork up to ``workers`` workers, each with its first unit."""
        for _ in range(workers):
            try:
                worker = self._fork()
            except OSError:  # no more processes: the rest run here
                break
            self.live[worker.results] = worker
            self.poll.register(worker.results, select.POLLIN)
            self._hand_out(worker)

    def _fork(self) -> _Worker:
        tasks_r, tasks_w = os.pipe()
        results_r, results_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (tasks_r, tasks_w, results_r, results_w):
                os.close(fd)
            raise
        if pid == 0:
            try:
                for fd in (tasks_w, results_r, *self.live):
                    os.close(fd)
                for worker in self.live.values():
                    os.close(worker.tasks)
                _serve(self.fn, self.units, tasks_r, results_w)
            finally:
                os._exit(0)
        os.close(tasks_r)
        os.close(results_w)
        return _Worker(pid, tasks_w, results_r)

    def _hand_out(self, worker):
        """Give ``worker`` the next unit, or end it when none is left.
        A worker that has died shows as the end of its results pipe."""
        if self.next == len(self.units):
            self._end(worker)
            return
        worker.unit = self.next
        self.next += 1
        try:
            _write(worker.tasks, _WORD.pack(worker.unit))
        except BrokenPipeError:
            pass

    def _end(self, worker):
        self.poll.unregister(worker.results)
        del self.live[worker.results]
        os.close(worker.results)
        os.close(worker.tasks)
        self.ended.append(worker)

    def _receive(self, worker):
        """Take ``worker``'s outcome of its unit; a unit it does not
        report, or whose outcome does not unpickle, runs here."""
        unit = worker.unit
        head = _read(worker.results, _WORD.size)
        size = _WORD.unpack(head)[0] if len(head) == _WORD.size else -1
        body = _read(worker.results, size) if size >= 0 else b""
        if len(body) == size:
            try:
                self.done[unit] = pickle.loads(body)
            except Exception:  # noqa: BLE001 - the unit runs here instead
                pass
            self._hand_out(worker)
        else:  # died before reporting
            self._end(worker)
        if unit not in self.done:
            self.done[unit] = _call(self.fn, self.units[unit])

    def outcome(self, i):
        """Unit ``i``'s (ok, value); every unit before it is taken."""
        while i not in self.done:
            if not self.live:  # every worker has ended: the rest run here
                return _call(self.fn, self.units[i])
            for fd, _ in self.poll.poll():
                self._receive(self.live[fd])
        return self.done.pop(i)

    def close(self):
        """Kill the workers that still hold a unit, and reap them all."""
        for worker in list(self.live.values()):
            os.kill(worker.pid, signal.SIGKILL)
            self._end(worker)
        for worker in self.ended:
            os.waitpid(worker.pid, 0)
        self.ended = []
