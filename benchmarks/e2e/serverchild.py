"""Launch ``repro-server`` the way the benchmark needs it.

The same entry point users run (``repro.server.cli.main``), from this
checkout's ``src``, under the benchmark's flush policy and -- with
``--trace-out`` -- with the benchmark's tracer installed, so the server
side of every request is recorded by the same wrappers as the client
side.  The spans are written when the server is interrupted.
"""

from __future__ import annotations

import argparse
import json
import signal

import conditions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-out", default=None,
                        help="record spans and write them here on exit")
    args, server_args = parser.parse_known_args(argv)
    conditions.use_checkout_engine()
    conditions.elide_fsync()
    # The server runs until interrupted, and the harness stops it with
    # SIGINT; a caller that started the benchmark with SIGINT ignored (a
    # shell's background job) must not make this process deaf to it.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    from repro.server import cli
    if args.trace_out is None:
        return cli.main(server_args)
    from tracing import Tracer
    with Tracer(always_active=True) as tracer:
        code = cli.main(server_args)
    with open(args.trace_out, "w") as out:
        json.dump(tracer.spans, out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
