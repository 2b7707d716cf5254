"""The ``repro-server`` console entry point.

Serve one database over the repro wire protocol::

    repro-server                      # in-memory database, OS-picked port
    repro-server --port 5435          # fixed port
    repro-server --path ./data        # persistent database directory

The process runs until interrupted (Ctrl-C or SIGTERM); every connected
client's open transaction is rolled back on shutdown, exactly as if the
client had disconnected.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from repro.db import Database
from repro.server.server import ReproServer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-server",
        description="Serve a repro database to multiple socket clients.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="port to bind (default: 0 = OS-picked)")
    parser.add_argument("--path", default=None,
                        help="database directory (default: in-memory)")
    parser.add_argument("--pool-size", type=int, default=256,
                        help="buffer pool size in pages (default: 256)")
    args = parser.parse_args(argv)

    db = Database(path=args.path, pool_size=args.pool_size,
                  charge_cpu=False)
    server = ReproServer(db, host=args.host, port=args.port)
    host, port = server.start()
    print(f"repro-server listening on {host}:{port}", flush=True)
    # SIGTERM (a supervisor's stop) takes the same path as Ctrl-C.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        # Nothing to do on the main thread: connection threads carry the
        # work.  Park until the user interrupts.
        threading.Event().wait()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.stop()
        db.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
