"""What a pass (``child.py``) does around set-up: cache scans, jobs, report.

Imported only after ``rootfire`` has been imported and timed.
"""

import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time

import workloads

SAMPLE_INTERVAL_S = 0.05


def _lru_cache_sizes():
    """currsize of every functools cache bound in a module of ``rootfire``."""
    sizes = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "rootfire" or name.startswith("rootfire.")):
            continue
        for attr, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)):
                sizes[f"{name}.{attr}"] = value.cache_info().currsize
    return sizes


def reference_s() -> float:
    """Seconds this interpreter takes for a fixed, tiny piece of pure-Python work.

    The work (tuple arithmetic, generator sums, set inserts; ~0.4 ms) has
    the flavour of rootfire's hot loops but none of its code, so it
    measures how fast the machine runs Python right now.
    """
    start = time.perf_counter()
    seen = set()
    for i in range(300):
        t = (i % 97, i % 89, i % 83)
        seen.add((t, sum(a * b for a, b in zip(t, (3, -1, 2)))))
    return time.perf_counter() - start


@contextlib.contextmanager
def speed_samples(tracer):
    """Run ``reference_s`` every SAMPLE_INTERVAL_S while the block runs.

    A shared host runs this process at two speeds about 1.7x apart and
    switches every few seconds, also within a job.  Samples taken
    throughout a job give the machine's mean speed over the job's time.
    When tracing, each sample is a span of its own, so its time stays
    out of the self time of the span it interrupts.
    """
    samples: list[float] = []

    def sample(signum, frame):
        samples.append(tracer.span("trace.sample", reference_s, (), {}) if tracer else reference_s())

    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_job(cli, argv, tracer) -> dict:
    """Run one CLI job: its wall time, the mean reference time during it, any error."""
    stdout, stderr = io.StringIO(), io.StringIO()
    code, error = None, None
    with speed_samples(tracer) as samples:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)  # looked up per call: a traced pass wraps it
        except Exception as exc:  # a crashing job is a failed job, not a crashed pass
            error = f"raised {type(exc).__name__}: {exc}"
    sampled_s = sum(samples)
    seconds = time.perf_counter() - start - sampled_s  # the samples are not the job's work
    samples.append(reference_s())  # at least one, however short the job
    if error is None:
        error = workloads.check(argv, code, stdout.getvalue())
    if error and stderr.getvalue():
        error += f" (stderr: {stderr.getvalue().strip()[-200:]})"
    return {"argv": argv, "seconds": seconds, "ref_s": statistics.fmean(samples), "error": error}


def start() -> dict:
    """The report's first fields, taken before set-up builds anything."""
    import rootfire

    return {
        "backend": rootfire.KERNEL_BACKEND,
        "package_file": rootfire.__file__,
        "caches_at_start": _lru_cache_sizes(),
    }


@contextlib.contextmanager
def tracing(on: bool):
    """The layer tracer, installed for the block, or None when ``on`` is false."""
    if not on:
        yield None
        return
    from tracer import Tracer, instrumented

    with instrumented(Tracer()) as tracer:
        yield tracer


def run_jobs(cli, jobs_json: str, tracer) -> dict:
    """Run the pass's jobs back to back; with a tracer, also the layer metrics."""
    covered_before = tracer.covered_s() if tracer else 0.0
    jobs = [run_job(cli, argv, tracer) for argv in json.loads(jobs_json)]
    out = {"jobs": jobs, "wall_s": sum(j["seconds"] for j in jobs)}
    if tracer:
        from tracer import layer_metrics

        out["layers"] = layer_metrics(tracer)
        # the speed samples are spans of their own, not the program's time
        covered_s = tracer.covered_s() - tracer.total_s["trace.sample"]
        out["covered_s"] = covered_s - covered_before
    return out


def finish(out: dict) -> str:
    out["caches_at_end"] = _lru_cache_sizes()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return json.dumps(out)
