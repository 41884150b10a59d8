#!/usr/bin/env python3
"""End-to-end smoke test for lotusx_server.

Starts the server on an ephemeral port with the HTTP admin plane
enabled and every query traced (LOTUSX_SLOW_QUERY_MS=0,
LOTUSX_TRACE_SAMPLE=1), drives a scripted TCP session — including a
pipelined batch written in one send() — checks every response frame,
the STATS counters, the admin endpoints (/healthz, /metrics,
/slowlog.json, /statements.json, /profilez), the SLOWLOG -> TRACE
EXPORT round trip, and the STATEMENTS workload aggregates (monotonic
call counters across pipelined load), then sends SIGTERM and asserts
/healthz turns 503 while draining and the process exits 0.

Usage: tools/server_smoke.py path/to/lotusx_server
"""

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time


class FrameParser:
    """Incremental parser for the byte-counted OK/ERR wire frames."""

    def __init__(self):
        self.buffer = b""

    def feed(self, data):
        self.buffer += data
        frames = []
        while True:
            newline = self.buffer.find(b"\n")
            if newline < 0:
                return frames
            header = self.buffer[:newline].decode()
            match = re.fullmatch(r"(OK|ERR) (\d+)", header)
            if not match:
                raise AssertionError(f"bad frame header: {header!r}")
            count = int(match.group(2))
            if len(self.buffer) < newline + 1 + count + 1:
                return frames
            payload = self.buffer[newline + 1 : newline + 1 + count]
            if self.buffer[newline + 1 + count : newline + 2 + count] != b"\n":
                raise AssertionError("frame payload not newline-terminated")
            self.buffer = self.buffer[newline + 2 + count :]
            frames.append((match.group(1) == "OK", payload.decode()))


def read_frames(sock, parser, count, deadline_s=10.0):
    frames = []
    deadline = time.monotonic() + deadline_s
    while len(frames) < count:
        sock.settimeout(max(0.1, deadline - time.monotonic()))
        data = sock.recv(65536)
        if not data:
            raise AssertionError(
                f"server closed early: got {len(frames)}/{count} frames"
            )
        frames.extend(parser.feed(data))
    assert len(frames) == count, f"expected {count} frames, got {len(frames)}"
    return frames


def admin_get(host, port, path, deadline_s=10.0):
    """One HTTP GET against the admin plane: (status, body)."""
    conn = http.client.HTTPConnection(host, port, timeout=deadline_s)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read().decode()
    finally:
        conn.close()


PROMETHEUS_LINE = re.compile(
    r"[A-Za-z_:][A-Za-z0-9_:]*(\{[^}]*\})? [^ ]+"
)


def parse_prometheus(text):
    """Validates the exposition format; returns {metric line: value}."""
    values = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        assert PROMETHEUS_LINE.fullmatch(line), f"bad metrics line: {line!r}"
        name, value = line.rsplit(" ", 1)
        values[name] = float(value)
    assert values, "empty /metrics exposition"
    return values


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    binary = sys.argv[1]

    env = dict(os.environ)
    env["LOTUSX_SLOW_QUERY_MS"] = "0"  # every query lands in SLOWLOG
    env["LOTUSX_TRACE_SAMPLE"] = "1"  # every trace is retained
    proc = subprocess.Popen(
        [binary, "--port", "0", "--admin-port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        line = proc.stdout.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", line)
        assert match, f"no listen announcement in {line!r}"
        host, port = match.group(1), int(match.group(2))
        line = proc.stdout.readline()
        match = re.search(r"admin listening on ([\d.]+):(\d+)", line)
        assert match, f"no admin announcement in {line!r}"
        admin_port = int(match.group(2))
        print(f"server up on {host}:{port}, admin on {host}:{admin_port}")

        # With LOTUSX_SLOW_QUERY_MS=0 every command emits a slow-query
        # log line into our pipe; keep consuming it or the server blocks
        # on a full pipe buffer mid-drain.
        drainer = threading.Thread(
            target=lambda: [None for _ in proc.stdout], daemon=True
        )
        drainer.start()

        # A clamped receive buffer (set before connect, so it caps the
        # advertised window) keeps the kernel from absorbing a large
        # response backlog — the drain test below depends on unread
        # responses actually holding the connection open.
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
        sock.settimeout(10)
        sock.connect((host, port))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        parser = FrameParser()

        # --- one command at a time -------------------------------------
        sock.sendall(b"ADD 50 0 article\n")
        ((ok, payload),) = read_frames(sock, parser, 1)
        assert ok and payload == "node 1", (ok, payload)

        sock.sendall(b"BOGUS\n")
        ((ok, payload),) = read_frames(sock, parser, 1)
        assert not ok, "BOGUS must produce an ERR frame"

        # --- pipelined batch in a single write -------------------------
        batch = (
            b"ADD 10 130 author\n"
            b"EDGE 1 2 /\n"
            b"ADD 90 130 title\n"
            b"EDGE 1 3 /\n"
            b"OUTPUT 3\n"
            b"VALUE 2 ~ lu\n"
            b"QUERY\n"
            b"RUN\n"
            b"SHOW\n"
        )
        sock.sendall(batch)
        frames = read_frames(sock, parser, 9)
        for i, (ok, payload) in enumerate(frames):
            assert ok, f"pipelined command {i} failed: {payload}"
        assert frames[0][1] == "node 2", frames[0]
        assert frames[2][1] == "node 3", frames[2]
        query = frames[6][1]
        assert "article" in query and "title" in query, query
        assert "\n" in frames[8][1], "SHOW should be multi-line"

        # --- STATS reflects the traffic we just generated ---------------
        sock.sendall(b"STATS\n")
        ((ok, stats),) = read_frames(sock, parser, 1)
        assert ok, stats
        for metric in (
            "lotusx_net_commands_total",
            "lotusx_net_accepted_total",
            "lotusx_net_connections_active",
            "lotusx_net_command_latency_usec",
        ):
            assert metric in stats, f"STATS missing {metric}"
        commands = re.search(r"lotusx_net_commands_total (\d+)", stats)
        assert commands and int(commands.group(1)) >= 11, (
            "commands_total should count this session's commands"
        )
        active = re.search(r"lotusx_net_connections_active (\d+)", stats)
        assert active and int(active.group(1)) == 1, (
            "exactly this connection should be active"
        )
        print("scripted session OK")

        # --- admin plane -----------------------------------------------
        status, body = admin_get(host, admin_port, "/healthz")
        assert status == 200, (status, body)
        health = json.loads(body)
        assert health["status"] == "ok", health
        assert health["draining"] is False, health
        assert health["uptime_sec"] >= 0, health
        assert health["version"], health
        assert health["git_sha"], health

        status, body = admin_get(host, admin_port, "/metrics")
        assert status == 200, status
        first_scrape = parse_prometheus(body)
        assert any(
            name.startswith("lotusx_net_commands_total")
            for name in first_scrape
        ), "/metrics missing net counters"
        assert any(
            name.startswith("lotusx_process_uptime_seconds")
            for name in first_scrape
        ), "/metrics missing process gauges"
        assert any(
            name.startswith("lotusx_build_info{") for name in first_scrape
        ), "/metrics missing build info"

        # Counters are monotonic across traffic.
        sock.sendall(b"SHOW\nSHOW\n")
        frames = read_frames(sock, parser, 2)
        assert all(ok for ok, _ in frames)
        status, body = admin_get(host, admin_port, "/metrics")
        assert status == 200, status
        second_scrape = parse_prometheus(body)
        for name, value in first_scrape.items():
            if "_total" not in name:
                continue
            assert second_scrape.get(name, 0) >= value, (
                f"counter {name} went backwards: {value} -> "
                f"{second_scrape.get(name)}"
            )
        commands_key = "lotusx_net_commands_total"
        assert second_scrape[commands_key] >= first_scrape[commands_key] + 2

        status, body = admin_get(host, admin_port, "/nope")
        assert status == 404, status
        print("admin plane OK")

        # --- SLOWLOG / TRACE round trip --------------------------------
        # Threshold 0 put every command in the slow-query ring; the RUN
        # from the batch must be there with a per-stage breakdown, and
        # its trace ID must resolve to a Chrome trace via TRACE EXPORT.
        status, body = admin_get(host, admin_port, "/slowlog.json")
        assert status == 200, status
        slowlog = json.loads(body)
        runs = [
            entry
            for entry in slowlog["entries"]
            if entry["query"] == "RUN" and entry["stages"]
        ]
        assert runs, f"no RUN entry with stage breakdown in {body!r}"
        # The search inside the RUN stamps its algorithm on the request
        # root, so the one entry per RUN names it.
        assert all(entry["algorithm"] for entry in runs), (
            f"RUN entry without an algorithm in {body!r}"
        )
        trace_id = runs[0]["trace_id"]
        assert re.fullmatch(r"0x[0-9a-f]{16}", trace_id), trace_id

        sock.sendall(b"SLOWLOG GET 50\n")
        ((ok, payload),) = read_frames(sock, parser, 1)
        assert ok and trace_id in payload, (
            f"SLOWLOG GET does not show {trace_id}"
        )

        sock.sendall(f"TRACE EXPORT {trace_id}\n".encode())
        ((ok, payload),) = read_frames(sock, parser, 1)
        assert ok, payload
        chrome = json.loads(payload)
        events = chrome["traceEvents"]
        assert events, "TRACE EXPORT returned no events"
        names = {event["name"] for event in events}
        assert "execute" in names, f"no execute span in {sorted(names)}"
        for event in events:
            assert event["ph"] == "X" and "ts" in event and "dur" in event
        print("slowlog/trace round trip OK")

        # --- workload introspection ------------------------------------
        # The RUN from the batch was fingerprinted and aggregated; the
        # STATEMENTS verb and /statements.json must both show it, and
        # its call counter must climb monotonically under more load.
        sock.sendall(b"STATEMENTS TOP 10\n")
        ((ok, payload),) = read_frames(sock, parser, 1)
        assert ok and "fingerprint=0x" in payload, payload
        match = re.search(r"calls=(\d+)", payload)
        assert match, payload
        first_calls = int(match.group(1))
        assert first_calls >= 1, payload

        sock.sendall(b"RUN\nRUN\nRUN\n")
        frames = read_frames(sock, parser, 3)
        assert all(ok for ok, _ in frames), frames
        sock.sendall(b"STATEMENTS TOP 10\n")
        ((ok, payload),) = read_frames(sock, parser, 1)
        assert ok, payload
        match = re.search(r"calls=(\d+)", payload)
        assert match, payload
        assert int(match.group(1)) >= first_calls + 3, (
            f"statement calls not monotonic: {first_calls} -> {payload!r}"
        )

        status, body = admin_get(host, admin_port, "/statements.json")
        assert status == 200, (status, body)
        statements = json.loads(body)["statements"]
        assert statements, "empty /statements.json after traffic"
        top = max(statements, key=lambda s: s["calls"])
        assert top["calls"] >= first_calls + 3, top
        assert re.fullmatch(r"0x[0-9a-f]{16}", top["fingerprint"]), top
        assert top["latency_usec"]["p50"] >= 0, top

        # A short wall profile over the admin plane: the collapsed
        # stacks must be non-empty, flamegraph-shaped ("frames count"
        # per line), and include the registered event-loop thread.
        status, body = admin_get(
            host, admin_port, "/profilez?seconds=0.2&mode=wall",
            deadline_s=15,
        )
        assert status == 200, (status, body)
        stacks = body.strip().splitlines()
        assert stacks, "/profilez returned no samples"
        for line in stacks:
            assert re.fullmatch(r".+ \d+", line), f"bad stack line {line!r}"
        assert any(line.startswith("event-loop;") for line in stacks), (
            f"no event-loop samples in {stacks[:5]}"
        )
        print("workload introspection OK")

        # --- graceful drain --------------------------------------------
        # Queue responses far beyond the (clamped) socket buffers and
        # leave them unread: the connection cannot flush, so the drain
        # stays pending and /healthz must answer 503 while it does. The
        # batch stays under the 256-command pipeline cap so one read
        # queues all of it, and waiting for the first response frame
        # proves the server took the batch before the drain stops reads.
        sock.sendall(b"STATS\n" * 200)
        read_frames(sock, parser, 1)
        proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 10
        while True:
            status, body = admin_get(host, admin_port, "/healthz")
            if status == 503:
                health = json.loads(body)
                assert health["status"] == "draining", health
                assert health["draining"] is True, health
                break
            assert time.monotonic() < deadline, (
                f"/healthz never turned 503 (last: {status} {body!r})"
            )
            time.sleep(0.05)
        print("drain reports 503 OK")

        # Consuming the backlog lets the drain finish: our connection
        # closes...
        sock.settimeout(10)
        while True:
            tail = sock.recv(65536)
            if not tail:
                break
        sock.close()
        # ...and the process exits 0.
        code = proc.wait(timeout=15)
        assert code == 0, f"server exited {code}"
        print("graceful drain OK")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
