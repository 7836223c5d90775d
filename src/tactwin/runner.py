"""How a batch of independent units runs: in a plain loop, on threads or in
forked worker processes, with results and the first failure in input order."""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

from .frames import SensorConfig

# Threads render a dataset faster than one thread only on a large raster:
# below it each image's numpy calls are too short to overlap under the GIL.
# Crossover, 300 sphere images, 2 threads against 1 in fresh processes:
# slower at 128 and 192 px, mixed at 256-320 px, faster from 384 px on.
THREAD_MIN_PIXELS = 384 * 384
# Below it forked worker processes render instead, which do not share the
# GIL, once a dataset pays the 20-40 ms that starting them costs. Crossover,
# 128 px sphere images, 2 processes against a plain loop, one call per fresh
# process, median ms of 11 alternated pairs (pairs the fork won): 32 images
# 52 -> 67 (3), 64: 99 -> 101 (8), 96: 157 -> 135 (9), 128: 220 -> 177 (9),
# 192: 288 -> 242 (10), 300: 569 -> 354 (10). Larger rasters cross lower.
FORK_MIN_IMAGES = 128


def _available_cpus() -> int:
    return len(os.sched_getaffinity(0))


def render_workers(sensor: SensorConfig, count: int, workers: int | None = None) -> tuple:
    """(workers, fork) that render ``count`` images: ``workers`` (default: one
    per CPU the process may use) but no more than there are images, in forked
    processes on a raster below ``THREAD_MIN_PIXELS`` and on threads from it
    on. By default a dataset of fewer than ``FORK_MIN_IMAGES`` images below
    the raster size renders in a plain loop."""
    fork = sensor.input_size ** 2 < THREAD_MIN_PIXELS
    if workers is None:
        workers = 1 if fork and count < FORK_MIN_IMAGES else _available_cpus()
    return min(workers, count), fork


_UNITS: list = []   # set in each worker process by _take_units


def _take_units(units: list):
    global _UNITS
    _UNITS = units


def _run_unit(i: int):
    return _UNITS[i]()


def run_units(units: list, workers: int | None = None, fork: bool = False) -> list:
    """Results of the zero-argument ``units``, in order.

    They run on ``workers`` threads (default: one per CPU the process may
    use), or in as many forked worker processes with ``fork``, never more
    than there are units; one worker runs them in a plain loop. Fork hands
    each worker a quarter of its share of indices at a time (threads take
    one), so task traffic stays small and the load even, and the units
    without pickling them, along with the parent's module state (a test's
    patched oracle too). It copies only the calling thread, so no other
    thread may be busy in the units' code. The first unit in order that
    fails raises its exception here, whichever finished first; units not yet
    started are cancelled, and no thread or worker outlives the call.
    """
    workers = min(_available_cpus() if workers is None else workers, len(units))
    if workers <= 1:
        return [unit() for unit in units]
    if fork:
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                   initializer=_take_units, initargs=(units,))
        run = _run_unit
    else:
        pool, run = ThreadPoolExecutor(workers), lambda i: units[i]()
    try:
        return list(pool.map(run, range(len(units)),
                             chunksize=max(1, len(units) // (4 * workers))))
    finally:
        pool.shutdown(cancel_futures=True)
