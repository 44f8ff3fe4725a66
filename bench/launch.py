"""Request launcher for run.py: runs CLI requests and reports their cost.

A child created by fork or vfork reports its parent's resident size as its
own peak until it execs, so CLI requests spawned straight from the harness
(which holds sympy, scipy and the generated documents) would all "peak" at
the harness's size.  This process imports almost nothing, spawns each
request, and reads the children's peak memory and CPU from
``RUSAGE_CHILDREN``.

Protocol: argv[1] is the JSON base command; each stdin line is a JSON object
``{"argv", "stdin", "timeout"}``; each reply line is a JSON object with
``code``, ``out``, ``err``, ``latency_s``, ``cpu_s`` and ``peak_rss_kb``.
"""

import json
import resource
import subprocess
import sys
from time import perf_counter


def main() -> None:
    base = json.loads(sys.argv[1])
    for line in sys.stdin:
        req = json.loads(line)
        u0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = perf_counter()
        try:
            p = subprocess.run(base + req["argv"], input=req["stdin"], capture_output=True,
                               text=True, timeout=req["timeout"])
            code, out, err = p.returncode, p.stdout, p.stderr
        except subprocess.TimeoutExpired:
            code, out, err = -9, "", f"killed after {req['timeout']:.0f} s"
        latency = perf_counter() - t0
        u1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = u1.ru_utime - u0.ru_utime + u1.ru_stime - u0.ru_stime
        reply = {"code": code, "out": out, "err": err, "latency_s": latency, "cpu_s": cpu,
                 "peak_rss_kb": u1.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
