"""Count the Python bytecodes an operation executes.

Wall time on this class of sandbox moves by a quarter between minutes;
the number of bytecodes the interpreter executes for a fixed operation
list does not move at all (same seed, ``PYTHONHASHSEED=0``).  The count
sees interpreted work only -- nothing spent in C, in the kernel or
waiting -- which is why the wall metrics stay beside it.

``sys.settrace`` with ``f_trace_opcodes`` slows the engine about
sevenfold, so only a prefix of the operation list is counted.
"""

from __future__ import annotations

import sys
import threading
import time


class OpcodeCounter:
    """``with OpcodeCounter() as c:`` -- ``c.count`` grows by one for every
    bytecode executed in any frame entered, on any thread started, while
    the block is active."""

    def __init__(self) -> None:
        self.count = 0

    def _on_call(self, frame, event, arg):
        if frame.f_code is _SETTLE_CODE:
            return None
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return self._on_event

    def _on_event(self, frame, event, arg):
        if event == "opcode":
            self.count += 1
        return self._on_event

    def settle(self) -> None:
        """Wait until no other thread is executing bytecodes.

        A server thread that has sent its reply still has a few bytecodes
        to run before it blocks in ``recv`` again; whether they fall
        before or after the client reads the counter is a race.  Waiting
        for the count to stand still puts them where they belong.  (This
        frame is not traced, so waiting does not count.)
        """
        seen = -1
        while seen != self.count:
            seen = self.count
            time.sleep(0.0005)

    def __enter__(self) -> "OpcodeCounter":
        threading.settrace(self._on_call)
        sys.settrace(self._on_call)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        sys.settrace(None)
        threading.settrace(None)


_SETTLE_CODE = OpcodeCounter.settle.__code__
