"""Serving-layer code with every handle released on all paths."""

import socket
import threading
from contextlib import closing


class StatusServer:
    def __init__(self, host, port):
        del host, port

    def stop(self):
        return None


def read_manifest(path):
    # with-statement: released on every path.
    with open(path) as fh:
        return fh.read()


def probe_endpoint(host, port):
    # Wrapped in a managing combinator.
    with closing(socket.socket()) as sock:
        sock.connect((host, port))
        return True


def make_reader(path):
    # A factory returning the handle transfers ownership to the caller.
    return open(path)


class Endpoint:
    def __init__(self, host, port):
        # Ownership moves to the object; its lifecycle releases it.
        self._server = StatusServer(host, port)

    def close(self):
        self._server.stop()


def serve_once(host, port):
    # Bound name released in a finally block.
    server = StatusServer(host, port)
    try:
        return repr(server)
    finally:
        server.stop()


def hash_in_background(digest, path):
    # Bound name joined in a finally block.
    worker = threading.Thread(target=digest.update, args=(path,))
    worker.start()
    try:
        return digest.result()
    finally:
        worker.join()
