"""Thread-safe meters wrapped around public calls, for traced runs.

The profiler sees only the thread that enabled it.  In the service
process the control plane, the job runner and every connected worker have
threads of their own, so the traced run times the calls into the svc,
dist and runner layers with these wrappers instead.  The wrapped calls run
on several threads, so every counter sits behind one lock.
"""

from __future__ import annotations

import collections
import threading
import time


class _CountingSocket:
    """Counts the bytes through the two socket calls the frame functions use."""

    __slots__ = ("_sock", "count")

    def __init__(self, sock):
        self._sock = sock
        self.count = 0

    def sendall(self, data) -> None:
        self._sock.sendall(data)
        self.count += len(data)

    def recv(self, size: int) -> bytes:
        data = self._sock.recv(size)
        self.count += len(data)
        return data


class Meters:
    """Calls and seconds of wrapped functions, plus dist wire frames and bytes."""

    def __init__(self):
        self._lock = threading.Lock()
        self.calls = collections.Counter()
        self.seconds = collections.Counter()
        self.frames = 0
        self.wire_bytes = 0
        self._originals = []

    def time_calls(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a wrapper that counts and times its calls."""
        original = getattr(owner, attribute)

        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                with self._lock:
                    self.calls[name] += 1
                    self.seconds[name] += elapsed

        self._replace(owner, attribute, timed)

    def count_frames(self, protocol) -> None:
        """Count the frames and bytes ``protocol`` moves between coordinator and workers.

        Control-plane (``svc-*``) frames are left out, and so are heartbeats,
        whose number depends on how long cells run, and shutdown frames,
        whose number depends on how closing races the serving threads.
        """
        skipped = (protocol.MSG_HEARTBEAT, protocol.MSG_SHUTDOWN)
        send, receive = protocol.send_message, protocol.recv_message

        def record(message, size: int) -> None:
            kind = message[0] if isinstance(message, tuple) and message else ""
            if kind in skipped or str(kind).startswith("svc-"):
                return
            with self._lock:
                self.frames += 1
                self.wire_bytes += size

        def send_message(sock, message) -> None:
            counting = _CountingSocket(sock)
            send(counting, message)
            record(message, counting.count)

        def recv_message(sock):
            counting = _CountingSocket(sock)
            message = receive(counting)
            record(message, counting.count)
            return message

        self._replace(protocol, "send_message", send_message)
        self._replace(protocol, "recv_message", recv_message)

    def _replace(self, owner, attribute: str, replacement) -> None:
        self._originals.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)
