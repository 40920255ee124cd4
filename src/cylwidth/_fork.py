"""One map over independent items, spread over the usable CPUs by ``os.fork``.

The adversarial search's restarts, the width trials of
:func:`~cylwidth.width.estimate_f_integral` and the Gaussian blocks of
:func:`~cylwidth.tnorm.gaussian_tnorm_statistics` each draw only from their
own derived stream, so :func:`map_forked` can run them on several processes
and still return the list a serial loop would.
"""

from __future__ import annotations

import os
import pickle


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def map_forked(func, n_items):
    """``[func(i) for i in range(n_items)]``, spread over forked processes.

    There are n = min(usable CPUs, ``n_items``) shares; share ``w`` holds
    items ``w, w + n, w + 2n, ...``.  This process runs share 0 itself, and
    each other share runs in a forked worker that pickles its results back
    through a pipe.  The list comes back in item order, so it does not
    depend on n.  With one share, or without ``os.fork``, every item runs
    in this process.  A worker's exception is raised here with its own
    type; every worker is reaped before this returns or raises, and an
    exception in this process's own share kills the workers first.  A
    forked worker shares the loaded modules and ``func``'s closure, so it
    starts at once and only the results are pickled.
    """
    n = min(_usable_cpus(), n_items) if hasattr(os, "fork") else 1
    if n <= 1:
        return [func(i) for i in range(n_items)]
    results = [None] * n_items
    workers = []  # (pid, read end of its pipe), unreaped, in share order
    try:
        for w in range(1, n):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                # _exit skips atexit handlers and the flush of inherited buffers
                try:
                    os.close(read_fd)
                    try:
                        msg = ("ok", [(i, func(i)) for i in range(w, n_items, n)])
                    except Exception as exc:
                        msg = ("err", exc)
                    with open(write_fd, "wb") as fh:
                        fh.write(pickle.dumps(msg))
                finally:
                    os._exit(0)
            os.close(write_fd)
            workers.append((pid, open(read_fd, "rb")))
        for i in range(0, n_items, n):
            results[i] = func(i)
        while workers:
            pid, fh = workers[0]
            with fh:
                data = fh.read()
            _, status = os.waitpid(pid, 0)
            workers.pop(0)
            # a worker that finishes exits 0; a killed one may leave a torn message
            if status or not data:
                raise RuntimeError(
                    f"worker {pid} sent no result (wait status {status})"
                )
            kind, payload = pickle.loads(data)
            if kind == "err":
                raise payload
            for i, value in payload:
                results[i] = value
        return results
    finally:
        if workers:
            import signal  # only a failed map needs it; kept off the import path

            for pid, fh in workers:
                fh.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
