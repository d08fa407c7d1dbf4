"""Launch ``repro.serve`` for the serve-mixed workload.

This is ``python -m repro.serve`` plus two benchmark hooks:

* ``SIGUSR1`` writes the server's peak RSS (``ru_maxrss``) to
  ``<data-dir>/rss.json``, so the client can read memory at a fixed
  request count without looking outside the checkout;
* ``--trace-out FILE`` installs the benchmark's wrappers
  (:mod:`vmtbench.tracing`) before the server starts and dumps their
  spans to ``FILE`` when it stops (``SIGINT``).
"""

import json
import os
import resource
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _dump_rss(data_dir: str) -> None:
    path = os.path.join(data_dir, "rss.json")
    payload = {"maxrss_kb":
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(path + ".tmp", path)


def main(argv) -> int:
    import argparse
    parser = argparse.ArgumentParser()
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    import repro
    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.join(
            ROOT, "src", "repro"):
        print(f"repro imported from {repro.__file__}", file=sys.stderr)
        return 2
    recorder = None
    if args.trace_out:
        sys.path.insert(0, ROOT)
        from vmtbench import tracing
        recorder = tracing.Recorder()
        tracing.install(recorder)
        tracing.install_run_probe(recorder)
    signal.signal(signal.SIGUSR1,
                  lambda signum, frame: _dump_rss(args.data_dir))
    from repro.serve import main as serve_main
    try:
        return serve_main(["--data-dir", args.data_dir,
                           "--port", str(args.port)])
    finally:
        if recorder is not None:
            recorder.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
