#!/usr/bin/env python3
"""Multi-client server demo: four writers share one large object.

Starts an in-process ``ReproServer`` on a loopback port, then connects
four socket clients that write *disjoint* ranges of one f-chunk large
object at the same time.  Under the old whole-object writer lock these
clients would have run strictly one after another; with range-granular
write locks they all hold EXCLUSIVE locks on the same object at once —
the server reports zero range-lock waits — and the final image is
byte-exact.  A fifth round of *overlapping* appends shows the locks
still serialize where they must.

Run:  python examples/server_demo.py

(The standalone equivalent is ``repro-server``: serve a database from
one terminal, connect ``ServerClient`` instances from others.)
"""

import threading

from repro.db import Database
from repro.lo.fchunk import LOCK_GRAIN_CHUNKS
from repro.server import ReproServer, ServerClient
from repro.storage.constants import CHUNK_PAYLOAD

N_CLIENTS = 4
GRAIN = CHUNK_PAYLOAD * LOCK_GRAIN_CHUNKS  # one range-lock grain
SPAN = 4096  # bytes each client writes inside its own grain


def main() -> None:
    db = Database(charge_cpu=False)
    with ReproServer(db) as server:
        host, port = server.address
        print(f"serving on {host}:{port}")

        # One client sets up the shared object.
        with ServerClient(host, port) as client:
            client.begin()
            designator = client.lo_create("fchunk")
            client.commit()
        print(f"shared object: {designator}")

        # -- disjoint ranges: all four proceed in parallel ----------------
        waits_before = db.locks.stats.range_waits

        def write_region(client_no: int) -> None:
            with ServerClient(host, port) as client:
                client.begin()
                fd = client.lo_open(designator, "rw")
                client.lo_pwrite(fd, client_no * GRAIN,
                                 bytes([client_no + 1]) * SPAN)
                client.lo_close(fd)
                client.commit()

        threads = [threading.Thread(target=write_region, args=(i,))
                   for i in range(N_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        waits = db.locks.stats.range_waits - waits_before
        print(f"{N_CLIENTS} clients wrote disjoint ranges; "
              f"range-lock waits: {waits}")

        # -- verify byte-exactness over the wire --------------------------
        with ServerClient(host, port) as client:
            client.begin()
            fd = client.lo_open(designator)
            exact = all(
                client.lo_pread(fd, i * GRAIN, SPAN) == bytes([i + 1]) * SPAN
                for i in range(N_CLIENTS))
            size = client.lo_size(fd)
            client.rollback()
        print(f"final image byte-exact: {exact} "
              f"({size:,} bytes, sparse regions read as zeros)")

        # -- overlapping appends still serialize --------------------------
        def append_tag(client_no: int) -> None:
            with ServerClient(host, port) as client:
                client.begin()
                fd = client.lo_open(designator, "rw")
                client.lo_append(fd, b"<client %d>" % client_no)
                client.lo_close(fd)
                client.commit()

        threads = [threading.Thread(target=append_tag, args=(i,))
                   for i in range(N_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        with ServerClient(host, port) as client:
            client.begin()
            fd = client.lo_open(designator)
            tail = client.lo_pread(fd, size)
            client.rollback()
        tags = sorted(tail.decode().replace("><", ">|<").split("|"))
        print(f"appends landed exactly once each: {tags}")

    db.close()
    print("server demo complete")


if __name__ == "__main__":
    main()
