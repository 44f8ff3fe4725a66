#!/usr/bin/env python3
"""framebundles benchmark: seeded closed-loop CLI workloads, checked by oracles.

    python3 bench/run.py --workload verify-suites --seed 1 --seconds 10 --trace 0

``--trace 0`` (end to end): one client issues real CLI requests one after
another, each a fresh ``python -m framebundles.cli --format json`` subprocess
with ``PYTHONPATH`` set to the checkout's ``src/``, spawned by ``launch.py``.
The run repeats whole passes of the workload's request mix until
``--seconds`` of request time have been measured, so each run measures the
same mix.  Set-up (oracle tables, input generation and one untimed warm-up
request) is timed separately, three times, and reported as its median.
Times are rescaled to a reference CPU speed (see ``REF_PROBE_S``).

``--trace 1`` (per layer): each request of the first pass runs in-process
through ``framebundles.cli.main``, once plain and once with timing wrappers
on every layer's public functions; outputs must be byte-identical between
the two, and the difference in time is the tracer's cost (see ``tracing``).

Every answer is checked after the timed window against ``oracles``, which
never imports the library.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a result file with
provenance goes to ``bench/results/``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no caches beside the benchmark or the packages it imports

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import sympy  # noqa: E402
from scipy.stats.mstats import hdquantiles  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
SETUP_REPEATS = 3
STARTUP_SAMPLES = 11
HARD_LIMIT_S = 160  # a run stops issuing requests past this, whatever --seconds says
# A traced run starts no request past this; an in-process request cannot be
# cut short, and the slowest request takes about 25 s plain and traced.
TRACE_LIMIT_S = 135
TAIL_CAP = 90
# Shared machines change speed by tens of percent within seconds.  A fixed
# interpreter loop is timed on the same CPU before and after each request,
# and every reported time is rescaled to the speed at which that loop takes
# REF_PROBE_S: wall times by the loop's wall time, CPU times by its CPU time,
# so that time the CPU spends elsewhere scales only the wall figures.  Raw
# wall-clock figures go to the result file.
PROBE_LOOPS = 400_000
REF_PROBE_S = 0.025

END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "cpu_per_request_s": "s",
}


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it, capped at p90."""
    return max(0, min(TAIL_CAP, (100 * (n - 10)) // n)) if n > 10 else 0


def percentile_value(samples: list[float], pct: int) -> float:
    """Harrell-Davis estimate of the percentile.

    It weights every order statistic instead of picking one, which matters
    here: a mixed workload leaves wide gaps between neighbouring latencies,
    and a single order statistic jumps across them from run to run.
    """
    return float(hdquantiles(samples, prob=[pct / 100])[0])


# --------------------------------------------------------------------------
# Running requests


class Client:
    """Runs CLI requests of the checkout under test through ``launch.py``.

    Each request is ``python -m framebundles.cli --format json ...`` with
    ``PYTHONPATH`` set to the checkout's ``src/``.  ``run`` returns wall and
    CPU seconds, exit code, stdout and stderr; ``peak_rss_kb`` is the largest
    resident size of any request so far.
    """

    def __init__(self, target: Path):
        base = [sys.executable, "-m", "framebundles.cli", "--format", "json"]
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launch.py"), json.dumps(base)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(target / "src")),
            cwd=str(target),
        )
        self.peak_rss_kb = 0

    def run(self, req: workloads.Request, timeout: float):
        line = json.dumps({"argv": req.argv, "stdin": req.stdin or "", "timeout": timeout})
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"request launcher exited with {self.proc.wait()}")
        r = json.loads(reply)
        self.peak_rss_kb = r["peak_rss_kb"]
        return r["latency_s"], r["cpu_s"], r["code"], r["out"], r["err"]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def run_in_process(cli, req: workloads.Request):
    """``cli.main`` on the request's argv with stdin, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(req.stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(["--format", "json", *req.argv])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a traceback is an answer the oracle rejects
                traceback.print_exc()
                code = 1
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


def check_all(wl, results) -> dict[int, str]:
    """Oracle verdicts for (request, code, stdout, stderr) tuples; index -> reason."""
    bad = {}
    for i, (req, code, out, err) in enumerate(results):
        reason = wl.check(req, code, out, err)
        if reason is not None:
            bad[i] = reason
    for i, reason in wl.check_batch(results).items():
        bad.setdefault(i, reason)
    return bad


# --------------------------------------------------------------------------
# End-to-end run


def probe() -> tuple[float, float]:
    """Wall and CPU seconds one fixed interpreter loop takes right now on this CPU."""
    t0, c0 = perf_counter(), process_time()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i
    return perf_counter() - t0, process_time() - c0


def setup_once(name: str, seed: int, client: Client):
    """Oracle tables, the first pass's inputs and one warm-up request."""
    p0 = probe()[0]
    t0 = perf_counter()
    wl = workloads.WORKLOADS[name](seed)
    rng = random.Random(seed)
    deck = wl.deck(rng)
    warm = wl.warmup()
    _, _, code, out, err = client.run(warm, timeout=HARD_LIMIT_S / 4)
    raw = perf_counter() - t0
    scale = REF_PROBE_S / ((p0 + probe()[0]) / 2)
    return raw, raw * scale, wl, rng, deck, (warm, code, out, err)


def timed_run(name: str, seed: int, seconds: float, target: Path, run_start: float) -> dict:
    # The launcher and its children inherit this affinity, so probes and
    # requests share one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with Client(target) as client:
        setups = [setup_once(name, seed, client) for _ in range(SETUP_REPEATS)]
        _, _, wl, rng, deck, _ = setups[-1]
        # fixed by the size of one pass, so runs with more passes report the same percentile
        pct = tail_percentile(len(deck))

        raw, scaled, cpu, probes, results = [], [], [], [], []
        passes = 0
        out_of_time = False
        before = probe()
        while not out_of_time:
            for req in deck:
                remaining = HARD_LIMIT_S - (perf_counter() - run_start)
                if remaining <= 1:
                    out_of_time = True
                    break
                lat, cpu_s, code, out, err = client.run(req, timeout=remaining)
                after = probe()
                wall_scale = REF_PROBE_S / ((before[0] + after[0]) / 2)
                cpu_scale = REF_PROBE_S / ((before[1] + after[1]) / 2)
                before = after
                probes.append(after)
                raw.append(lat)
                scaled.append(lat * wall_scale)
                cpu.append(cpu_s * cpu_scale)
                results.append((req, code, out, err))
            else:
                passes += 1
            if sum(raw) >= seconds:
                break
            deck = wl.deck(rng)
        peak_rss_kb = client.peak_rss_kb

    warmups = [s[5] for s in setups]
    bad = check_all(wl, results)
    for req, code, out, err in warmups:
        reason = wl.check(req, code, out, err)
        if reason is not None:
            bad[f"warm-up {req.label}"] = reason
    n = len(results)
    metrics = {
        "setup_s": statistics.median(s[1] for s in setups),
        "requests_per_s": n / sum(scaled) if n else 0.0,
        "latency_p50_s": statistics.median(scaled) if n else 0.0,
        "latency_tail_s": percentile_value(scaled, pct) if n else 0.0,
        "peak_rss_mb": peak_rss_kb / 1024,
        "cpu_per_request_s": sum(cpu) / n if n else 0.0,
    }
    attempted = n + len(warmups)
    return {
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "attempted": attempted,
        "failed": len(bad),
        "correct": not bad,
        "details": {
            "passes": passes,
            "out_of_time": out_of_time,
            "samples": n,
            "tail_percentile": pct,
            "fail_share": len(bad) / attempted,
            "measured_wall_s": sum(raw),
            "probe_median_s": statistics.median(p[0] for p in probes) if probes else None,
            "probe_cpu_median_s": statistics.median(p[1] for p in probes) if probes else None,
            "wall_clock": {
                "setup_s": statistics.median(s[0] for s in setups),
                "requests_per_s": n / sum(raw) if n else 0.0,
                "latency_p50_s": statistics.median(raw) if n else 0.0,
                "latency_tail_s": percentile_value(raw, pct) if n else 0.0,
            },
            "failures": [f"{k}: {v}" for k, v in list(bad.items())[:20]],
            "requests": [
                {"label": req.label, "exit": code, "latency_s": lat, "scaled_s": sc}
                for (req, code, _, _), lat, sc in zip(results, raw, scaled)
            ],
        },
    }


# --------------------------------------------------------------------------
# Traced run


def startup_seconds(target: Path) -> float:
    """Median wall time of a subprocess that only imports framebundles.cli."""
    env = dict(os.environ, PYTHONPATH=str(target / "src"))
    times = []
    for _ in range(STARTUP_SAMPLES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import framebundles.cli"], env=env,
                       cwd=str(target), check=True, timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _timed_in_process(cli, req):
    t0 = perf_counter()
    res = run_in_process(cli, req)
    return perf_counter() - t0, res


def traced_run(name: str, seed: int, target: Path, spans_path: Path, run_start: float) -> dict:
    sys.path.insert(0, str(target / "src"))
    import framebundles.cli as cli

    wl = workloads.WORKLOADS[name](seed)
    deck = wl.deck(random.Random(seed))
    run_in_process(cli, wl.warmup())
    startup_s = startup_seconds(target)

    tracer = tracing.Tracer()
    tracer.call_s, tracer.window_share = tracing.calibrate()

    def run_traced(i, req):
        patched = tracing.install(tracer)
        try:
            tracer.begin(i, len((req.stdin or "").encode()))
            return _timed_in_process(cli, req)
        finally:
            tracing.uninstall(patched)

    # Each request runs plain and traced back to back, in alternating order,
    # so that both see the same machine speed and the difference in wall time
    # is the tracer's cost.
    plain_times, plain, traced_times, traced = [], [], [], []
    for i, req in enumerate(deck):
        if perf_counter() - run_start > TRACE_LIMIT_S:
            break  # the requests left untraced fail the run below
        if i % 2:
            t_traced, res_traced = run_traced(i, req)
            t_plain, res_plain = _timed_in_process(cli, req)
        else:
            t_plain, res_plain = _timed_in_process(cli, req)
            t_traced, res_traced = run_traced(i, req)
        tracer.end()
        plain_times.append(t_plain)
        plain.append(res_plain)
        traced_times.append(t_traced)
        traced.append(res_traced)
    traced_wall = sum(traced_times)
    plain_wall = sum(plain_times)
    tracer.finish(traced_wall - plain_wall)

    results = [(req, *res) for req, res in zip(deck, traced)]
    bad = check_all(wl, results)
    for i, (a, b) in enumerate(zip(plain, traced)):
        if a != b:
            bad.setdefault(i, "traced output differs from the untraced in-process output")
    # Per-layer figures of a partial pass are not comparable with a whole one.
    for i in range(len(traced), len(deck)):
        bad[i] = f"not traced: the run reached its {TRACE_LIMIT_S} s limit"

    metrics, shares = tracing.layer_metrics(tracer, traced_wall)
    metrics["cli.startup_s"] = startup_s
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall if plain_wall > 0 else 0.0

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with spans_path.open("w", encoding="utf-8") as fh:
        json.dump({
            "requests": [req.label for req in deck],
            "spans_fields": ["id", "name", "start", "end", "parent", "request"],
            "spans": tracer.spans,
            "aggregates_fields": ["request", "name", "count", "total_s", "self_s"],
            "aggregates": tracer.aggregates,
        }, fh)
    return {
        "metrics": {k: {"value": v, "unit": per_layer_unit(k)} for k, v in metrics.items()},
        "attempted": len(deck),
        "failed": len(bad),
        "correct": not bad,
        "details": {
            "traced_requests": len(traced),
            "plain_wall_s": plain_wall,
            "traced_wall_s": traced_wall,
            "tracer_cost_s": tracer.overhead_s,
            "wrapped_call_s": tracer.call_s,
            "window_share": tracer.window_share,
            "layer_share_of_traced_wall": shares,
            "spans_file": str(spans_path.relative_to(BENCH_DIR.parent)),
            "failures": [f"{k}: {v}" for k, v in list(bad.items())[:20]],
        },
    }


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_bits_max"):
        return "bits"
    return "count"


# --------------------------------------------------------------------------
# Provenance and output


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(target: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(target.parent))
    try:
        p = subprocess.run(["git", "-C", str(target), "rev-parse", "HEAD"], capture_output=True,
                           text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def _src_sha256(target: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((target / "src").rglob("*.py")):
        h.update(path.relative_to(target).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(target: Path, seed: int) -> dict:
    return {
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "git_sha": _git_sha(target),
        "src_sha256": _src_sha256(target),
        "seed": seed,
    }


def main(argv=None) -> int:
    run_start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--target", type=Path, default=BENCH_DIR.parent,
                        help="checkout whose src/ is measured (default: this one)")
    args = parser.parse_args(argv)

    target = args.target.resolve()
    if not (target / "src" / "framebundles" / "cli.py").is_file():
        print(f"error: no framebundles sources under {target / 'src'}", file=sys.stderr)
        return 2

    prov = provenance(target, args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{prov['src_sha256'][:12]}"
    if args.trace:
        result = traced_run(args.workload, args.seed, target, RESULTS_DIR / f"{stem}-spans.json",
                            run_start)
    else:
        result = timed_run(args.workload, args.seed, args.seconds, target, run_start)

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "target": str(target),
        "provenance": prov,
        **result,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    details = result["details"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key in ("passes", "samples", "tail_percentile", "fail_share", "measured_wall_s",
                "probe_median_s", "probe_cpu_median_s", "wall_clock", "traced_requests",
                "plain_wall_s", "traced_wall_s", "tracer_cost_s", "wrapped_call_s",
                "window_share"):
        if key in details:
            print(f"  {key}: {details[key]}")
    if "layer_share_of_traced_wall" in details:
        for layer, share in details["layer_share_of_traced_wall"].items():
            print(f"  share {layer}: {share:.3f}")
    for name, m in result["metrics"].items():
        print(f"  {name}: {m['value']:.6g} {m['unit']}")
    for line in details["failures"]:
        print(f"  FAIL {line}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
