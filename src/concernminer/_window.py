"""The ordered window both model stages run their jobs through."""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from typing import Callable, Iterable

from .errors import ValidationError


def run_ordered(work: Callable, jobs: Iterable, commit: Callable, max_inflight: int) -> None:
    """Call ``work(job, stop)`` for every job, and ``commit(job, result, error)``
    on the calling thread in input order; ``error`` is the exception the job
    raised.

    At ``max_inflight = 1`` the calling thread runs each job itself, then
    commits it, and starts no thread; an interrupt a job raises propagates at
    once. Above 1, a pool of ``max_inflight`` threads runs the jobs, started
    at most ``2 * max_inflight`` ahead of the commit point, and the calling
    thread only commits. When the window ends,
    by an exception or an interrupt too, ``stop`` is set so running jobs can
    return early, unstarted jobs are cancelled and the pool is joined.
    """
    if max_inflight < 1:
        raise ValidationError("max_inflight must be >= 1")
    stop = threading.Event()
    if max_inflight == 1:
        try:
            for job in jobs:
                try:
                    result, error = work(job, stop), None
                except Exception as exc:  # a failed job is committed in order
                    result, error = None, exc
                commit(job, result, error)
        finally:
            stop.set()
        return
    pool = ThreadPoolExecutor(max_workers=max_inflight)
    started = ((job, pool.submit(work, job, stop)) for job in jobs)
    try:
        window = deque(islice(started, 2 * max_inflight))
        while window:
            job, future = window.popleft()
            error = future.exception()  # a BaseException from a pool thread is committed too
            commit(job, None if error else future.result(), error)
            window.extend(islice(started, 1))
    finally:
        stop.set()
        pool.shutdown(cancel_futures=True)
