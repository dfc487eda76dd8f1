"""The timed query loop, run in a process of its own.

    python3 perfbench/loop.py <spec.pkl> <out.pkl>

``run.py`` writes the spec (index dir, warm-up ops, the timed op
sequence, whether to trace) and starts this script once the lifecycle is
done and Ray is down.  The process imports the engine and nothing of the
benchmark's set-up (no oracle, no corpus, no Ray session), so its peak
RSS during the loop is the serving engine's and not the harness's.  It
writes raw op times, host-speed probes, results and (traced) spans back;
``run.py`` checks and reports them.
"""

from __future__ import annotations

import os
import pickle
import re
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

CAL_REF_S = 0.0015       # nominal time of one calibration unit


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS counter (``VmHWM``)."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        return int(re.search(r"VmHWM:\s+(\d+)", f.read()).group(1)) / 1024.0


def _calibration_unit(clock) -> float:
    """A fixed mix of interpreter, dict and NumPy work, like a query's."""
    t0 = clock()
    s = 0
    for i in range(10000):
        s += i * i
    d: dict[int, int] = {}
    for i in range(4000):
        d[i % 61] = d.get(i % 61, 0) + i
    a = np.arange(60000)[::-1].copy()
    a.sort()
    return clock() - t0


def host_slowdown(units: int = 3) -> float:
    """How much slower than nominal this host runs right now, in CPU
    time.  The host is shared: its speed for one fixed piece of work
    drifts by up to half over tens of seconds, on CPU time as well as on
    wall time.  In-process op times are divided by the slowdown measured
    next to them, so they read as if taken at the nominal speed."""
    return statistics.median([_calibration_unit(time.process_time)
                              for _ in range(units)]) / CAL_REF_S


def write(engine, idx: str, docs: list[int], probe: str):
    """Remove ``docs`` and refresh.  Returns the CPU seconds until the
    removal is visible to queries and an error message or None.  An
    untimed probe on ``probe`` (a rare term of each doc) then checks that
    no removed doc is served."""
    import probly_search_ray.maintain as maintain
    t0 = time.process_time()
    try:
        n = maintain.remove_documents(idx, docs)
        engine.refresh()
    except Exception as e:  # noqa: BLE001 - counted as a failed op
        return float("nan"), f"write {docs}: {e!r}"
    dt = time.process_time() - t0
    got = {d for d, _ in engine.query(probe, "bm25", expand=False)}
    if n != len(docs) or got & set(docs):
        return dt, (f"write {docs}: removed {n}, still served "
                    f"{sorted(got & set(docs))}")
    return dt, None


def serve(spec: dict) -> dict:
    """Closed loop, one client: the next op starts when the previous one
    has returned.  Op times are process CPU time; the host speed is
    probed every ``probe_every`` ops so ``run.py`` can normalize them."""
    from probly_search_ray.search import SearchEngine
    from stream import run_query
    from tracing import Tracer

    idx, ops, trace = spec["index"], spec["ops"], spec["trace"]
    every, block = spec["probe_every"], spec["trace_block"]
    tracer = Tracer()
    engine = SearchEngine(idx)
    for o in spec["warm_ops"]:
        run_query(engine, o)
    n = len(ops)
    lat = np.zeros(n)
    slow = np.zeros((n - 1) // every + 2)
    results: list = [None] * n
    errors: dict[int, str] = {}
    reset_peak_rss()
    for i, op in enumerate(ops):
        if i % every == 0:
            slow[i // every] = host_slowdown()
        if trace and i % block == 0:
            if (i // block) % 2:
                tracer.install()
            else:
                tracer.uninstall()
        tracer.op = spec["op_base"] + i
        if op["kind"] == "write":
            lat[i], err = write(engine, idx, op["docs"], op["probe"])
            if err:
                errors[i] = err
            continue
        t0 = time.process_time()
        try:
            results[i] = run_query(engine, op)
        except Exception as e:  # noqa: BLE001 - counted as a failed op
            errors[i] = f"{op}: {e!r}"
        lat[i] = time.process_time() - t0
    tracer.uninstall()
    rss = peak_rss_mb()
    slow[(n - 1) // every + 1] = host_slowdown()
    return {"lat": lat, "slow": slow, "results": results, "errors": errors,
            "peak_rss_mb": rss, "spans": tracer.spans}


def main(argv) -> int:
    sys.path[:0] = [ROOT, HERE]
    with open(argv[1], "rb") as f:
        spec = pickle.load(f)
    out = serve(spec)
    with open(argv[2], "wb") as f:
        pickle.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
