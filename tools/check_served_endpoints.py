#!/usr/bin/env python3
"""Checks that docs/serving.md lists only endpoints spi_served serves.

Reads every `METHOD /path` row of the endpoint table in the "Endpoints"
section of docs/serving.md and probes a running spi_served on
127.0.0.1:PORT:

  * POST /job with a small synthetic speech job answers 200 (probed
    first, so the first sampled batch fills GET /trace/flight);
  * every documented GET answers anything but 404;
  * POST /plan, the removed plan-upload path, answers 404;
  * replies stream per batch: on one connection, one speech job
    pipelined ahead of 8 particle jobs of 4096 steps gets its reply
    while the particle batch is still running (a zero-timeout select
    after the speech reply sees no particle reply bytes yet), and every
    reply of the burst answers 200;
  * replies stream per particle job: on one connection, two particle
    jobs of one tenant and 4096 steps each (one batch) get the first
    reply while the second job is still running (the same select sees
    no bytes of the second reply), and both answer 200.

A documented POST other than /job fails the check until a probe for it
is added here. Exit status 0 when every probe passes.

Usage: tools/check_served_endpoints.py PORT [docs/serving.md]
"""
import re
import select
import socket
import sys
import urllib.error
import urllib.request

ROW = re.compile(r"^\|\s*`([A-Z]+) (/[^`\s]*)`\s*\|")
JOB = b'{"app":"speech","frame_size":16,"order":3,"seed":1}'
LONG_PARTICLE = b'{"app":"particle","steps":4096,"seed":%d}'


def documented_endpoints(doc_path):
    endpoints = []
    in_section = False
    with open(doc_path, encoding="utf-8") as doc:
        for line in doc:
            if line.startswith("## "):
                in_section = line.strip() == "## Endpoints"
            elif in_section and (match := ROW.match(line)):
                endpoints.append((match.group(1), match.group(2)))
    return endpoints


def status(port, method, path, body=None):
    request = urllib.request.Request(f"http://127.0.0.1:{port}{path}", data=body, method=method)
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status
    except urllib.error.HTTPError as error:
        return error.code


def post_job(body):
    return b"POST /job HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n\r\n%s" % (
        len(body), body)


def read_reply(sock, inbox):
    """Reads one Content-Length-framed reply; returns (status, rest of inbox)."""
    while b"\r\n\r\n" not in inbox:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("connection closed mid-reply")
        inbox += chunk
    head, _, inbox = inbox.partition(b"\r\n\r\n")
    length = int(re.search(rb"(?im)^content-length:\s*(\d+)", head).group(1))
    while len(inbox) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("connection closed mid-reply")
        inbox += chunk
    return int(head.split(b" ", 2)[1]), inbox[length:]


def pipelined(port, bodies):
    """Sends `bodies` as jobs pipelined on one connection. Returns whether
    no byte of the second reply had arrived once the first was read in
    full, and every reply's status."""
    wire = b"".join(post_job(body) for body in bodies)
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(wire)
        first, inbox = read_reply(sock, b"")
        early = not inbox and not select.select([sock], [], [], 0)[0]
        statuses = [first]
        for _ in bodies[1:]:
            status, inbox = read_reply(sock, inbox)
            statuses.append(status)
    return early, statuses


def streaming_probe(port):
    """True when a speech reply leaves before the particle batch behind it ends."""
    particles = 8
    early, statuses = pipelined(
        port, [JOB] + [LONG_PARTICLE % seed for seed in range(particles)])
    print(f"{'ok  ' if early else 'FAIL'} pipelined speech reply leaves before the "
          f"{particles}-job particle batch behind it")
    answered = statuses == [200] * (particles + 1)
    print(f"{'ok  ' if answered else 'FAIL'} pipelined burst answers 200 each -> {statuses}")
    return early and answered


def per_job_probe(port):
    """True when a particle job's reply leaves before the next job of its batch ends."""
    early, statuses = pipelined(port, [LONG_PARTICLE % seed for seed in (1, 2)])
    print(f"{'ok  ' if early else 'FAIL'} particle reply leaves before the next job "
          f"of its batch ends")
    answered = statuses == [200, 200]
    print(f"{'ok  ' if answered else 'FAIL'} per-job burst answers 200 each -> {statuses}")
    return early and answered


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    port = int(argv[1])
    endpoints = documented_endpoints(argv[2] if len(argv) == 3 else "docs/serving.md")
    if ("POST", "/job") not in endpoints:
        print("check_served_endpoints: POST /job is not documented", file=sys.stderr)
        return 1
    # POST /job first: its batch is the first sampled one, so the flight
    # bridge has a capture before GET /trace/flight is probed.
    probes = [("POST", "/job", JOB, lambda code: code == 200, "200")]
    for method, path in endpoints:
        if method == "GET":
            probes.append((method, path, None, lambda code: code != 404, "not 404"))
        elif (method, path) != ("POST", "/job"):
            probes.append((method, path, None, lambda code: False, "a probe in this script"))
    probes.append(("POST", "/plan", b"{}", lambda code: code == 404, "404 (removed)"))

    failures = 0
    for method, path, body, ok, want in probes:
        code = status(port, method, path, body)
        passed = ok(code)
        failures += not passed
        print(f"{'ok  ' if passed else 'FAIL'} {method} {path} -> {code} (want {want})")
    failures += not streaming_probe(port)
    failures += not per_job_probe(port)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
