"""Starts the merge daemon (``repro.service``'s ``serve_main``) for the benchmark.

Usage::

    python perfbench/daemon_launcher.py --result OUT.json [--trace] -- \\
        --port 0 --jobs 1

Everything after ``--`` goes to ``serve_main`` unchanged.  On exit the
launcher writes ``OUT.json`` with its own peak RSS and, with ``--trace``,
the spans recorded while the tracer was armed.  With ``--trace`` the layer
wrappers of :mod:`tracing` are installed before the daemon is built, but
record nothing until ``SIGUSR1`` arms them; ``SIGUSR2`` disarms them and
keeps a snapshot.  Each signal is acknowledged by creating
``OUT.json.armed`` or ``OUT.json.disarmed``, so the client knows the timed
window has started or ended.
"""

import argparse
import json
import os
import resource
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = args.serve_args
    if serve_args and serve_args[0] == "--":
        serve_args = serve_args[1:]

    from repro.service.cli import serve_main

    tracer = None
    snapshot = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.recording = False
        tracing.install(tracer)

        def arm(signum, frame):
            tracer.reset()
            tracer.recording = True
            open(args.result + ".armed", "w").close()

        def disarm(signum, frame):
            nonlocal snapshot
            tracer.recording = False
            snapshot = tracer.snapshot()
            open(args.result + ".disarmed", "w").close()

        signal.signal(signal.SIGUSR1, arm)
        signal.signal(signal.SIGUSR2, disarm)

    code = serve_main(serve_args)
    result = {"pid": os.getpid(),
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "trace": snapshot}
    with open(args.result + ".tmp", "w") as handle:
        json.dump(result, handle)
    os.replace(args.result + ".tmp", args.result)
    return code


if __name__ == "__main__":
    sys.exit(main())
