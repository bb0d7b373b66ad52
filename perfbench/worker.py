"""One pass of a workload in a fresh interpreter.

    python worker.py SRC_DIR SPEC_JSON

SPEC_JSON holds ``{"ops": [argv, ...], "trace": bool, "spans_out": path}``.
The ops run back to back through ``ldpput.cli.main`` with stdout and
stderr captured; the last line printed is a JSON object with each op's
exit code, seconds, output and sha256, the pass's op wall time, its peak
RSS, the host's slowdown factor over the pass (see hostspeed.py; the
bursts' own time is left out of the op and pass times) and, when traced,
the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

from hostspeed import HostSpeed  # this script's directory is on sys.path


def main(src_dir: str, spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, src_dir)
    import ldpput.cli

    package_dir = os.path.dirname(os.path.abspath(ldpput.__file__))
    if os.path.dirname(package_dir) != os.path.abspath(src_dir):
        raise SystemExit(f"ldpput imported from {package_dir}, not from {src_dir}")

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    cli_main = ldpput.cli.main  # looked up after the shims are installed

    # Bursts also run in a traced pass, inside whichever span is open:
    # about 1.2 ms per 0.2 s, so spans read up to ~0.6 % long.
    host = HostSpeed()
    ops = []
    with host:
        start = time.perf_counter()
        for argv in spec["ops"]:
            out, err = io.StringIO(), io.StringIO()
            t0, spent0 = time.perf_counter(), host.spent
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli_main(list(argv))
                except SystemExit as exc:  # argparse rejects an argv this way
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a traceback fails this op, not the pass
                    traceback.print_exc()
                    code = 1
            seconds = time.perf_counter() - t0 - (host.spent - spent0)
            ops.append({"code": code, "seconds": seconds,
                        "stdout": out.getvalue(), "stderr": err.getvalue()})
        solve_s = time.perf_counter() - start - host.spent

    output_bytes = 0
    for op in ops:
        data = op["stdout"].encode("utf-8")
        op["sha256"] = hashlib.sha256(data).hexdigest()
        output_bytes += len(data)
    result = {"ops": ops, "solve_s": solve_s, "host_factor": host.factor(),
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["layers"], result["counts"] = tracer.summarise(output_bytes)
        tracer.write(spec["spans_out"])
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
