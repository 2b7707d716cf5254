"""A multi-client server front-end over one shared Database.

The paper's large-object interface was exercised through the POSTGRES
server process: many clients, one backend per connection, all sharing
the buffer pool, lock manager, and commit log.  This package supplies
that missing process boundary for the reproduction:

* :mod:`repro.server.protocol` — a tiny length-prefixed wire format
  (a binary header of declared, typed fields + a raw binary body, so
  ``lo_pread``/``lo_pwrite`` payloads never pass through text encoding);
* :mod:`repro.server.server` — :class:`ReproServer`, a threaded socket
  server mapping one connection to one :class:`~repro.session.Session`;
* :mod:`repro.server.client` — :class:`ServerClient`, the blocking
  client used by tests, examples, and interactive sessions;
* :mod:`repro.server.cli` — the ``repro-server`` console entry point.

Concurrency comes from the engine, not the server: connection threads
call straight into the shared :class:`~repro.db.Database`, and the
range-granular lock manager (``txn/rangelock.py``) is what lets two
connections write disjoint ranges of one large object in parallel.
"""

from repro.server.client import ServerClient
from repro.server.server import ReproServer

__all__ = ["ReproServer", "ServerClient"]
