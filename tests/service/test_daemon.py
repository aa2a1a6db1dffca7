"""Daemon wire protocol: newline-JSON verbs over real sockets."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.service.core import FabricService
from repro.service.daemon import FabricDaemon
from repro.service.log import RequestLog, replay


async def boot(**overrides):
    params = dict(nodes=36, design="SF", footprint_pages=64)
    params.update(overrides)
    service = FabricService(**params)
    daemon = FabricDaemon(service, quantum=32)
    host, port = await daemon.start()
    return service, daemon, host, port


async def connect(host, port):
    return await asyncio.open_connection(host, port)


async def roundtrip(reader, writer, message: dict) -> dict:
    writer.write(json.dumps(message).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


def test_read_write_roundtrip():
    async def scenario():
        service, daemon, host, port = await boot()
        reader, writer = await connect(host, port)
        ack = await roundtrip(
            reader, writer, {"op": "hello", "tenant": "alice"}
        )
        assert ack == {"ok": True, "tenant": "alice"}
        resp = await roundtrip(
            reader, writer, {"op": "read", "page": 3, "id": "r1"}
        )
        assert resp["ok"] and resp["status"] == "done"
        assert resp["id"] == "r1" and resp["tenant"] == "alice"
        assert resp["latency"] > 0
        resp = await roundtrip(
            reader, writer,
            {"op": "write", "page": 4, "size": 256, "id": "w1"},
        )
        assert resp["ok"] and resp["op"] == "write"
        writer.close()
        await daemon.stop()

    asyncio.run(scenario())


def test_stats_and_error_handling():
    async def scenario():
        service, daemon, host, port = await boot()
        reader, writer = await connect(host, port)
        bad = await roundtrip(reader, writer, {"op": "frobnicate"})
        assert not bad["ok"] and "unknown op" in bad["error"]
        not_json = b"this is not json\n"
        writer.write(not_json)
        await writer.drain()
        parse_err = json.loads(await reader.readline())
        assert not parse_err["ok"]
        out_of_range = await roundtrip(
            reader, writer, {"op": "read", "page": 9999, "id": "bad"}
        )
        assert not out_of_range["ok"] and out_of_range["status"] == "error"
        stats = await roundtrip(reader, writer, {"op": "stats"})
        assert stats["ok"] and stats["nodes"] == 36
        assert "tenants" in stats
        writer.close()
        await daemon.stop()

    asyncio.run(scenario())

def test_default_tenant_assigned_per_connection():
    async def scenario():
        service, daemon, host, port = await boot()
        r1, w1 = await connect(host, port)
        r2, w2 = await connect(host, port)
        await roundtrip(r1, w1, {"op": "read", "page": 1, "id": "a"})
        await roundtrip(r2, w2, {"op": "read", "page": 2, "id": "b"})
        stats = await roundtrip(r1, w1, {"op": "stats"})
        assert len(stats["tenants"]) == 2  # client-0, client-1
        w1.close()
        w2.close()
        await daemon.stop()

    asyncio.run(scenario())


def test_drain_and_shutdown_verbs():
    async def scenario():
        service, daemon, host, port = await boot()
        reader, writer = await connect(host, port)
        for i in range(5):
            writer.write(json.dumps(
                {"op": "read", "page": i, "id": f"r{i}"}
            ).encode() + b"\n")
        await writer.drain()
        for _ in range(5):
            json.loads(await reader.readline())
        drained = await roundtrip(reader, writer, {"op": "drain", "id": "d"})
        assert drained["verb"] == "drain" and drained["all_conserved"]
        down = await roundtrip(reader, writer, {"op": "shutdown"})
        assert down["verb"] == "shutdown" and down["all_conserved"]
        writer.close()
        await daemon.wait_stopped()
        assert service.outstanding == 0

    asyncio.run(scenario())


def test_concurrent_clients_all_complete():
    async def scenario():
        service, daemon, host, port = await boot(
            max_outstanding=6, node_watermark=2, queue_depth=64
        )
        done = []

        async def client(idx):
            reader, writer = await connect(host, port)
            for i in range(10):
                resp = await roundtrip(reader, writer, {
                    "op": "read", "page": (idx * 13 + i) % 64,
                    "id": f"{idx}/{i}",
                })
                done.append(resp["status"])
            writer.close()

        await asyncio.gather(*[client(i) for i in range(8)])
        await daemon.stop()
        assert len(done) == 80
        assert all(status == "done" for status in done)
        assert service.queued_total > 0  # budget 6 vs 8 clients

    asyncio.run(scenario())


MALFORMED_FIELDS = [
    {"page": None},
    {"page": "x"},
    {"page": 3.7},
    {"page": True},
    {"page": 1, "size": "big"},
    {"page": 1, "size": 2.0},
    {"page": 1, "offset": "0"},
]


@pytest.mark.parametrize("fields", MALFORMED_FIELDS, ids=repr)
def test_malformed_request_fields_answered_not_fatal(fields):
    """Malformed page/offset/size get an error reply and are never
    submitted: the pump keeps running, every request is conserved and
    the capture replays to the same digest."""

    async def scenario():
        service, daemon, host, port = await boot()
        reader, writer = await connect(host, port)
        before = await roundtrip(
            reader, writer, {"op": "read", "page": 1, "id": "before"}
        )
        assert before["ok"]
        bad = await asyncio.wait_for(
            roundtrip(reader, writer, {"op": "read", "id": "bad", **fields}), 10
        )
        assert bad["ok"] is False and bad["id"] == "bad"
        assert "must be an integer" in bad["error"]
        assert not daemon._pump_task.done()
        after = await asyncio.wait_for(
            roundtrip(reader, writer, {"op": "write", "page": 2, "id": "after"}),
            10,
        )
        assert after["ok"]
        drained = await roundtrip(reader, writer, {"op": "drain", "id": "d"})
        assert drained["requests_conserved"] and drained["all_conserved"]
        writer.close()
        await daemon.stop()
        return service

    service = asyncio.run(scenario())
    requests = [e for e in service.log_entries if e["kind"] == "request"]
    assert [e["req_id"] for e in requests] == ["before", "after"]
    assert replay(RequestLog.capture(service)).digest() == service.digest()


def test_submit_rejects_malformed_fields_before_logging():
    service = FabricService(nodes=36, design="SF", footprint_pages=64)
    for fields in MALFORMED_FIELDS:
        kwargs = {k: v for k, v in fields.items() if k != "page"}
        with pytest.raises(TypeError, match="must be an integer"):
            service.submit("a", "read", fields["page"], **kwargs)
    assert service.log_entries == []
    assert service.snapshot()["submitted"] == 0


def test_oversized_line_closes_only_that_connection():
    async def scenario():
        service, daemon, host, port = await boot()
        r1, w1 = await connect(host, port)
        r2, w2 = await connect(host, port)
        w1.write(b'{"op": "read", "pad": "' + b"x" * (1 << 17) + b'"}\n')
        await w1.drain()
        reply = json.loads(await asyncio.wait_for(r1.readline(), 10))
        assert reply["ok"] is False and "line too long" in reply["error"]
        # Closed by the daemon: EOF, or a reset when the unread tail of
        # the long line was still queued at the server's socket.
        try:
            assert await asyncio.wait_for(r1.read(), 10) == b""
        except ConnectionResetError:
            pass
        resp = await asyncio.wait_for(
            roundtrip(r2, w2, {"op": "read", "page": 5, "id": "ok"}), 10
        )
        assert resp["ok"] and resp["id"] == "ok"
        assert not daemon._pump_task.done()
        w1.close()
        w2.close()
        await daemon.stop()

    asyncio.run(scenario())
