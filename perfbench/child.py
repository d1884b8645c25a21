"""One measured pass, run in a fresh interpreter so every cache starts cold.

    python3 perfbench/child.py MODE SYSTEMS JOBS

``MODE`` is ``setup`` (set-up only), ``run`` (set-up, then the jobs) or
``trace`` (the same with the layer tracer installed before the root
systems are built).  ``SYSTEMS`` is a comma-separated list of root system
specs, ``JOBS`` a JSON list of CLI argument vectors.  Prints one JSON
object as the last line of standard output.

Until ``rootfire`` is imported this module has loaded only ``sys`` and
``time``, so set-up pays for every standard-library module rootfire
needs; the harness (``harness.py``) is imported after it.
"""

import sys
import time


def main(mode: str, systems: list[str], jobs_json: str) -> str:
    t0 = time.perf_counter()
    import rootfire
    import rootfire.cli

    import_s = time.perf_counter() - t0
    import harness

    out = harness.start()
    with harness.tracing(mode == "trace") as tracer:
        t1 = time.perf_counter()
        for system in systems:
            rootfire.rootsys.from_spec(system)
        # set-up excludes the harness import, the cache scan and installing the tracer
        out["setup_s"] = import_s + time.perf_counter() - t1
        if mode != "setup":
            out.update(harness.run_jobs(rootfire.cli, jobs_json, tracer))
    return harness.finish(out)


if __name__ == "__main__":
    print(main(sys.argv[1], sys.argv[2].split(","), sys.argv[3]))
