"""The ordered window both model stages run their jobs through."""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from itertools import islice
from typing import Callable, Iterable

from .errors import ValidationError


def run_ordered(work: Callable, jobs: Iterable, commit: Callable, max_inflight: int) -> None:
    """Call ``work(job, stop)`` for every job, at most ``2 * max_inflight``
    jobs ahead of the commit point, and ``commit(job, result, error)`` on the
    calling thread in input order; ``error`` is the exception the job raised.

    The calling thread is one of the ``max_inflight`` workers. Jobs enter a
    queue in input order, and every job but each ``max_inflight``-th also
    asks a pool of at most ``max_inflight - 1`` threads to run queued jobs,
    so ``max_inflight = 1`` starts no thread. While the job next to commit is
    not done, the calling thread runs the earliest queued job itself if that
    job is the next to commit, or if at least ``max_inflight - 1`` jobs are
    queued; otherwise it waits, so it can commit as soon as the job is done.
    When the window ends, by an exception or an interrupt too, the queue is
    emptied, ``stop`` is set so running jobs can return early, and the pool
    is joined.
    """
    if max_inflight < 1:
        raise ValidationError("max_inflight must be >= 1")
    stop = threading.Event()
    queued: deque = deque()  # (job, future) pairs no worker has taken yet; deque operations are atomic

    def run_next() -> None:
        try:
            job, future = queued.popleft()
        except IndexError:
            return
        try:
            future.set_result(work(job, stop))
        except BaseException as exc:  # a failed job is committed in order; an interrupt also propagates
            future.set_exception(exc)
            if not isinstance(exc, Exception):
                raise

    def drain() -> None:
        while queued:
            run_next()

    def enqueue(k: int, job) -> tuple:
        queued.append(entry := (job, Future()))
        if k % max_inflight:
            pool.submit(drain)
        return entry

    pool = ThreadPoolExecutor(max_workers=max(1, max_inflight - 1))  # a thread starts on a submit only
    started = (enqueue(k, job) for k, job in enumerate(jobs))
    try:
        window = deque(islice(started, 2 * max_inflight))
        while window:
            job, future = window.popleft()
            while not future.done():
                try:
                    head_queued = queued[0][1] is future
                except IndexError:
                    break  # every job in the window is started
                if not head_queued and len(queued) < max_inflight - 1:
                    break  # a short backlog: stay free to commit
                run_next()
            error = future.exception()
            commit(job, None if error else future.result(), error)
            window.extend(islice(started, 1))
    finally:
        queued.clear()
        stop.set()
        pool.shutdown(cancel_futures=True)
