"""Fork fan-out: the items of a list shared by stride between the calling
process and forked children.

``scan_singularity`` runs its initial conditions through ``fork_map``
when it has more than one worker.  The module is imported only then, so
that ``import quadint.dynamics`` loads neither it nor pickle.  Forked
children inherit everything compiled before the fork.
"""

from __future__ import annotations

import os
import pickle
import signal


def fork_map(run, items, workers: int) -> list:
    """``[run(idx, item) for idx, item in enumerate(items)]`` from
    ``workers`` processes, where worker k runs ``items[k::workers]``.

    This process is worker 0.  Each other worker is a forked child that
    sends back its results as one pickle on a pipe.  A worker stops at
    the first Exception its share raises; of the workers' first
    failures, the one at the lowest index is raised here, as the serial
    loop would raise it.  So a failure of this process's share at index
    i > 0 still waits for the children, whose shares hold lower indices.
    A child that ends without its results (a nonzero wait status, or a
    short pickle) raises ChildProcessError.  If this process raises in
    any other way (a failure at index 0, a BaseException such as
    KeyboardInterrupt, or a signal handler raising while it waits for
    the children), it closes the pipes, so that a child blocked on a
    full one gets EPIPE, then kills the children.  On every path each
    child is reaped before this returns.  Needs ``os.fork``.
    """
    every = signal.valid_signals()
    pids, reads, payloads = [], [], None
    # signals are held while children are forked and recorded, and while
    # they are reaped, so that no handler raises between a fork and its
    # record or leaves a child unreaped
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, every)
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(run, items, k, workers, mask, w, reads)
            finally:
                os.close(w)
            pids.append(pid)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        shares = [_share(run, items, 0, workers)]
        if shares[0][1] is not None and shares[0][1][0] == 0:
            raise shares[0][1][1]   # no child holds a lower index
        # set only once every pipe is read: until then the children are killed
        payloads = [_read(r) for r in reads]
    finally:
        signal.pthread_sigmask(signal.SIG_BLOCK, every)
        try:
            for r in reads:
                os.close(r)
            if payloads is None:
                for pid in pids:
                    os.kill(pid, signal.SIGKILL)
            statuses = [os.waitpid(pid, 0)[1] for pid in pids]
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    for k, status, payload in zip(range(1, workers), statuses, payloads):
        shares.append(_unpickle(k, status, payload))
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * len(items)
    for k, (share, _) in enumerate(shares):
        results[k::workers] = share
    return results


def _share(run, items, k: int, workers: int):
    """Worker k's results up to its first failure, and that failure as
    ``(index, exception)``, or None if there is none."""
    results = []
    for idx in range(k, len(items), workers):
        try:
            results.append(run(idx, items[idx]))
        except Exception as exc:
            return results, (idx, exc)
    return results, None


def _read(fd: int) -> bytes:
    with open(fd, "rb", closefd=False) as pipe:
        return pipe.read()


def _unpickle(k: int, status: int, payload: bytes):
    """Worker k's share from its wait status and the bytes it wrote."""
    lost = ChildProcessError(f"worker {k} ended without its results (wait status {status})")
    if status != 0:
        raise lost
    try:
        return pickle.loads(payload)
    except (EOFError, pickle.UnpicklingError):  # exited 0 before its pickle was whole
        raise lost from None


def _child(run, items, k: int, workers: int, mask, write_end: int, reads):
    """Worker k, in a forked child: write ``_share``'s value to
    ``write_end`` as one pickle and exit with status 0, or with 1 if that
    fails.  The signal mask ``mask`` is restored and the inherited read
    ends ``reads`` closed first, so that the parent's closing a read end
    leaves that pipe without a reader.  Never returns."""
    status = 1
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for r in reads:
            os.close(r)
        share = _share(run, items, k, workers)
        with open(write_end, "wb") as pipe:
            pickle.dump(share, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)
