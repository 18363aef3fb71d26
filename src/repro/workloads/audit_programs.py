"""Fig. 6 / Table 5: real-world programs under system-call auditing.

The five programs run natively (no enclave) while the audit ruleset from
the paper's footnote is active; the variable is the *sink*: none
(baseline), in-memory Kaudit, or VeilS-LOG.  Per-operation compute is
calibrated so audited-syscall density yields the paper's overhead
ordering: Memcached and NGINX (high log rates) at the top, OpenSSL and
7-Zip (compute-heavy, low rates) at the bottom.
"""

from __future__ import annotations

from ..kernel.fs import O_APPEND, O_CREAT, O_RDWR
from ..kernel.net import AF_INET, SOCK_STREAM
from .base import AppApi, Program


# ---- OpenSSL (pts/openssl: signing throughput) ------------------------------

OPENSSL_OPS = 120
OPENSSL_COMPUTE_PER_OP = 1_350_000     # one RSA signing operation


def _openssl_setup(kernel) -> dict:
    return {}


def _openssl_run(api: AppApi, state: dict):
    for _ in range(OPENSSL_OPS):
        api.compute(OPENSSL_COMPUTE_PER_OP)
        api.write(1, b"sign-op-complete\n")       # audited: write
    return OPENSSL_OPS


# ---- 7-Zip (pts/compress-7zip) -------------------------------------------------

SEVENZIP_CHUNKS = 140
SEVENZIP_COMPUTE_PER_CHUNK = 930_000   # LZMA over one block
SEVENZIP_BLOCK_BYTES = 16 * 1024


def _sevenzip_setup(kernel) -> dict:
    inode = kernel.fs.create("/tmp/7z-input.bin")
    inode.data = bytearray(
        b"\x7e" * (SEVENZIP_CHUNKS * SEVENZIP_BLOCK_BYTES))
    return {"input": "/tmp/7z-input.bin", "output": "/tmp/archive.7z"}


def _sevenzip_run(api: AppApi, state: dict):
    in_fd = api.open(state["input"], O_RDWR)             # audited: open
    out_fd = api.open(state["output"], O_CREAT | O_RDWR)
    for _ in range(SEVENZIP_CHUNKS):
        api.read(in_fd, SEVENZIP_BLOCK_BYTES)            # audited: read
        api.compute(SEVENZIP_COMPUTE_PER_CHUNK)
        api.write(out_fd, b"z" * (SEVENZIP_BLOCK_BYTES // 3))
    api.close(in_fd)
    api.close(out_fd)
    return SEVENZIP_CHUNKS


# ---- Memcached (memaslap, 90:10 GET:SET) ------------------------------------------

MEMCACHED_OPS = 400
MEMCACHED_COMPUTE_PER_OP = 200_000     # protocol parse + hash + slab work
MEMCACHED_VALUE_BYTES = 512
MEMCACHED_PORT = 11211


def _memcached_setup(kernel) -> dict:
    return {"kernel": kernel}


def _memcached_run(api: AppApi, state: dict):
    kernel = state["kernel"]
    listener = api.socket(AF_INET, SOCK_STREAM)
    api.bind(listener, "127.0.0.1", MEMCACHED_PORT)
    api.listen(listener, 64)
    client = kernel.net.socket(AF_INET, SOCK_STREAM)
    kernel.net.connect(client, "127.0.0.1", MEMCACHED_PORT)
    conn = api.accept(listener)
    value = b"V" * MEMCACHED_VALUE_BYTES
    for index in range(MEMCACHED_OPS):
        if index % 10 == 0:
            client.send(b"set key0 0 0 512\r\n" + value)
        else:
            client.send(b"get key0\r\n")
        api.recv(conn, 1024)                 # audited: recvfrom
        api.compute(MEMCACHED_COMPUTE_PER_OP)
        api.send(conn, value)                # audited: sendto
    api.close(conn)
    api.close(listener)
    return MEMCACHED_OPS


# ---- SQLite (pts/sqlite-speedtest) ------------------------------------------------------

SQLITE_AUDIT_OPS = 220
SQLITE_AUDIT_COMPUTE = 290_000         # speedtest query mix per step


def _sqlite_setup(kernel) -> dict:
    return {"db": "/tmp/speedtest.db"}


def _sqlite_audit_run(api: AppApi, state: dict):
    db = api.open(state["db"], O_CREAT | O_RDWR | O_APPEND)
    row = b"s" * 256
    for _ in range(SQLITE_AUDIT_OPS):
        api.compute(SQLITE_AUDIT_COMPUTE)
        api.write(db, row)                   # audited: write
    api.close(db)
    return SQLITE_AUDIT_OPS


# ---- NGINX (2 workers, ab with 10KB files) -------------------------------------------------

NGINX_REQUESTS = 150
NGINX_COMPUTE_PER_REQUEST = 480_000
NGINX_FILE_BYTES = 10 * 1024
NGINX_PORT = 8081


def _nginx_setup(kernel) -> dict:
    inode = kernel.fs.create("/tmp/nginx-10k.html")
    inode.data = bytearray(b"n" * NGINX_FILE_BYTES)
    return {"docroot": "/tmp/nginx-10k.html", "kernel": kernel}


def _nginx_run(api: AppApi, state: dict):
    kernel = state["kernel"]
    listener = api.socket(AF_INET, SOCK_STREAM)
    api.bind(listener, "127.0.0.1", NGINX_PORT)
    api.listen(listener, 64)
    # nginx caches open file descriptors (open_file_cache): the document
    # is opened once and served via pread, which is not in the ruleset.
    doc_fd = api.open(state["docroot"], O_RDWR)   # audited: open (once)
    request_line = b"GET /nginx-10k.html HTTP/1.1\r\n\r\n"
    for _ in range(NGINX_REQUESTS):
        client = kernel.net.socket(AF_INET, SOCK_STREAM)
        kernel.net.connect(client, "127.0.0.1", NGINX_PORT)
        client.send(request_line)
        conn = api.accept(listener)          # audited: accept
        api.recv(conn, 256)                  # audited: recvfrom
        api.compute(NGINX_COMPUTE_PER_REQUEST)
        body = api.pread(doc_fd, NGINX_FILE_BYTES, 0)   # not audited
        api.send(conn, body)                       # audited: sendto
        api.close(conn)                            # audited: close
    api.close(doc_fd)
    api.close(listener)
    return NGINX_REQUESTS


AUDITED_PROGRAMS = (
    Program("OpenSSL", _openssl_setup, _openssl_run,
            "Phoronix pts/openssl"),
    Program("7-Zip", _sevenzip_setup, _sevenzip_run,
            "Phoronix pts/compress-7zip"),
    Program("Memcached", _memcached_setup, _memcached_run,
            "memaslap 90:10 GET:SET, concurrency 16"),
    Program("SQLite", _sqlite_setup, _sqlite_audit_run,
            "Phoronix pts/sqlite-speedtest"),
    Program("NGINX", _nginx_setup, _nginx_run,
            "2 workers benchmarked with ab, 10KB files"),
)


def audited_program_by_name(name: str) -> Program:
    """Look up a Table 5 program by name."""
    for program in AUDITED_PROGRAMS:
        if program.name.lower() == name.lower():
            return program
    raise KeyError(name)
