"""Serving-layer code that leaks handles on exception paths."""

import socket
import threading


def read_manifest(path):
    # RES001: fh.read() can raise, leaking the handle; close() on the
    # happy path is not exception-safe release.
    fh = open(path)
    data = fh.read()
    fh.close()
    return data


def probe_endpoint(host, port):
    # RES001: connect() can raise after the socket exists.
    sock = socket.socket()
    sock.connect((host, port))
    sock.close()
    return True


def hash_in_background(digest, path):
    # RES001: nothing joins the thread if digest.result() raises.
    worker = threading.Thread(target=digest.update, args=(path,))
    worker.start()
    return digest.result()


def start_in_background(fn):
    # RES001: a method call on the thread is not a release; nothing
    # joins it.
    threading.Thread(target=fn).start()


def read_whole(path):
    # RES001: the handle is read and dropped, never closed.
    return open(path).read()
