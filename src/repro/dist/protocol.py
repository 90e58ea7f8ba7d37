"""Length-prefixed pickle framing for the coordinator/worker wire protocol.

One message is one pickled Python object, framed as an 8-byte big-endian
unsigned length prefix followed by exactly that many pickle bytes.  The
frame boundary is what makes the protocol trivially robust over TCP's byte
stream: :func:`recv_message` reads the prefix, then the payload, and never
has to guess where a pickle ends.  EOF in the middle of (or between)
frames raises :class:`ConnectionClosed`; a frame that does not decode, or
whose declared length exceeds :data:`MAX_MESSAGE_BYTES`, raises
:class:`ProtocolError` — a corrupted or hostile prefix must not make the
receiver allocate gigabytes.

Messages themselves are plain tuples whose first element is one of the
``MSG_*`` kind constants below; the comments give each message's shape.
Everything crossing the wire — :class:`~repro.runner.specs.RunSpec` cells,
:class:`~repro.runner.cells.CellResult` payloads, exceptions — is already
picklable by the runner's design (PR 1), so the framing layer needs no
schema of its own.

Every TCP socket of the worker wire and of the service's control plane
comes from :func:`connect` or :func:`accept`, which set ``TCP_NODELAY``
so that each frame goes out as soon as :func:`send_message` writes it.  Without it the worker's pull
loop stalls on every cell: it writes ``result``, writes ``ready``, then
waits for the next ``task``.  Nagle's algorithm holds the small ``ready``
frame until ``result`` is acknowledged, and the coordinator, which sends
nothing until ``ready`` arrives, delays that acknowledgement (40 ms at
least on Linux).

Both listening ports, the coordinator's worker port and the service's
control port, are a :class:`ConnectionServer`: it owns the accept loop,
the thread serving each connection and the shutdown of all of them.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
import time
from typing import Callable, Dict, Optional, Tuple

#: 8-byte big-endian unsigned frame-length prefix
HEADER = struct.Struct(">Q")

#: refuse to (de)serialise frames beyond this size (1 GiB)
MAX_MESSAGE_BYTES = 1 << 30

#: largest single ``recv`` when draining a frame body
_RECV_CHUNK = 1 << 20

#: how long ConnectionServer.close waits for its threads, in seconds
_CLOSE_JOIN_S = 5.0

# worker -> coordinator
MSG_HELLO = "hello"            # (MSG_HELLO, worker_name)
MSG_READY = "ready"            # (MSG_READY,)
MSG_HEARTBEAT = "heartbeat"    # (MSG_HEARTBEAT,)
MSG_RESULT = "result"          # (MSG_RESULT, generation, index, payload)
MSG_TASK_ERROR = "task-error"  # (MSG_TASK_ERROR, generation, index, error)
# ... or (MSG_TASK_ERROR, None, None, text) for a task that did not decode

# coordinator -> worker
MSG_TASK = "task"              # (MSG_TASK, generation, index, function, item)
MSG_SHUTDOWN = "shutdown"      # (MSG_SHUTDOWN,)

# sweep-service control plane (client -> service), one request per
# connection; every request is answered with MSG_SVC_OK or MSG_SVC_ERROR
MSG_SVC_SUBMIT = "svc-submit"      # (MSG_SVC_SUBMIT, name, cells)
MSG_SVC_STATUS = "svc-status"      # (MSG_SVC_STATUS, job_id_or_None)
MSG_SVC_RESULTS = "svc-results"    # (MSG_SVC_RESULTS, job_id)
MSG_SVC_CELLS = "svc-cells"        # (MSG_SVC_CELLS, job_id)
MSG_SVC_CACHE = "svc-cache"        # (MSG_SVC_CACHE,)
MSG_SVC_SHUTDOWN = "svc-shutdown"  # (MSG_SVC_SHUTDOWN,)

# service -> client
MSG_SVC_OK = "svc-ok"              # (MSG_SVC_OK, payload)
MSG_SVC_ERROR = "svc-error"        # (MSG_SVC_ERROR, message)


class ProtocolError(RuntimeError):
    """The peer sent bytes that do not frame a valid message."""


class ConnectionClosed(ConnectionError):
    """The peer closed the connection (EOF inside or between frames)."""


def send_message(sock: socket.socket, message) -> None:
    """Frame and send one message (blocking until fully written)."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"message of {len(payload)} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte frame limit"
        )
    # one sendall for prefix+payload: the frame hits the stream atomically
    # with respect to this socket's other senders (callers lock per socket)
    sock.sendall(HEADER.pack(len(payload)) + payload)


def recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise :class:`ConnectionClosed`."""
    if count == 0:
        return b""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, _RECV_CHUNK))
        if not chunk:
            raise ConnectionClosed(
                f"peer closed the connection with {remaining} of {count} "
                "bytes outstanding"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return chunks[0] if len(chunks) == 1 else b"".join(chunks)


def recv_message(sock: socket.socket):
    """Receive one framed message (blocking until a whole frame arrived)."""
    (length,) = HEADER.unpack(recv_exact(sock, HEADER.size))
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"frame announces {length} bytes, beyond the "
            f"{MAX_MESSAGE_BYTES}-byte limit"
        )
    payload = recv_exact(sock, length)
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc


def connect(address: str, timeout: Optional[float] = None) -> socket.socket:
    """Open a TCP connection to ``"host:port"`` that sends each frame at once."""
    sock = socket.create_connection(parse_address(address), timeout=timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        sock.close()
        raise
    return sock


def accept(listener: socket.socket) -> Tuple[socket.socket, Tuple]:
    """Accept a connection that sends each frame at once: ``(socket, peer)``.

    An ``OSError`` comes only from ``listener`` itself (closed, say), so
    an accept loop can stop on it.  A connection the option cannot be set
    on (some systems refuse it once the peer has reset) is closed, and the
    next one is accepted.
    """
    while True:
        sock, address = listener.accept()
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            sock.close()
            continue
        return sock, address


def parse_address(address: str) -> Tuple[str, int]:
    """Split ``"host:port"``; an empty host means every interface."""
    host, separator, port_text = address.rpartition(":")
    if not separator:
        raise ValueError(f"address must be 'host:port', got {address!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"port must be an integer, got {port_text!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port must be in [0, 65535], got {port}")
    return host or "0.0.0.0", port


def format_address(host: str, port: int) -> str:
    """The inverse of :func:`parse_address`."""
    return f"{host}:{port}"


class ConnectionServer:
    """A listening TCP port that serves each connection on a thread of its own.

    Binds ``bind`` (``"host:port"``; port 0 picks a free port, read back
    from :attr:`address`) and accepts on a thread named ``<name>-accept``.
    Each connection runs ``handler(sock)`` on a thread named
    ``<name>-serve-<peer>``; the socket is closed when the handler returns.
    """

    def __init__(self, bind: str, handler: Callable[[socket.socket], None],
                 name: str):
        self._listener = socket.create_server(parse_address(bind))
        self._handler = handler
        self._name = name
        #: guards _connections and _closed
        self._lock = threading.Lock()
        #: every open connection -> the thread serving it
        self._connections: Dict[socket.socket, threading.Thread] = {}
        self._closed = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{name}-accept", daemon=True)
        self._accept_thread.start()

    @property
    def address(self) -> str:
        """The bound ``host:port``; a wildcard host reads as ``127.0.0.1``."""
        host, port = self._listener.getsockname()[:2]
        if host in ("0.0.0.0", "::"):
            host = "127.0.0.1"
        return format_address(host, port)

    def close(self) -> None:
        """Stop accepting, end every open connection, join the threads.

        A handler blocked in ``recv`` sees EOF.  The threads are joined
        within a bounded wait.  A handler may call this: the calling
        thread is never joined.
        """
        with self._lock:
            self._closed = True
            connections = dict(self._connections)
        # on Linux close() alone leaves the accept thread blocked;
        # shutdown first makes its accept() fail at once
        for sock in (self._listener, *connections):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._listener.close()
        deadline = time.monotonic() + _CLOSE_JOIN_S
        for thread in (self._accept_thread, *connections.values()):
            if thread is not threading.current_thread():
                thread.join(max(0.0, deadline - time.monotonic()))

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, peer = accept(self._listener)
            except OSError:
                return  # the listener closed
            thread = threading.Thread(
                target=self._serve, args=(sock,),
                name=f"{self._name}-serve-{peer[0]}:{peer[1]}", daemon=True)
            with self._lock:
                if self._closed:
                    sock.close()
                    return
                self._connections[sock] = thread
                thread.start()

    def _serve(self, sock: socket.socket) -> None:
        try:
            with sock:
                self._handler(sock)
        finally:
            with self._lock:
                self._connections.pop(sock, None)
