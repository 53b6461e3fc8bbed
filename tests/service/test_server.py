"""The compile/run service: session loop, ops, error paths, TCP.

Most tests drive the server through :meth:`ServiceServer.loopback` —
the identical ``serve_session`` dispatch loop as TCP, over an in-process
transport whose JSON round-trip proves every response is serializable.
The TCP tests at the bottom cover the real socket path and shutdown.
"""

import numpy as np
import pytest

from repro.service import (
    ServiceClient,
    ServiceError,
    ServiceServer,
    default_manager,
)
from repro.service.cache import CompileCache

SRC = "x = ones(8, 8);\ndisp(sum(sum(x)));\n"
SRC_FUN = "a = double_it(21);\ndisp(a);\n"
MFILES = {"double_it": "function y = double_it(x)\ny = x * 2;\n"}


@pytest.fixture
def server():
    return ServiceServer(cache=CompileCache(disk_root=False))


@pytest.fixture
def client(server):
    with server.loopback() as c:
        yield c


# ---------------------------------------------------------------------- #
# ops
# ---------------------------------------------------------------------- #


def test_ping(client):
    reply = client.ping()
    assert reply["pong"] and reply["session"] == 1
    assert reply["protocol"] == 1


def test_compile_then_run_shares_the_key(server, client):
    compiled = client.compile(SRC, nprocs=4)
    assert not compiled["cached"] and compiled["passes"]
    ran = client.run(SRC, nprocs=4)
    assert ran["cached"] and ran["key"] == compiled["key"]
    assert ran["passes"] == []
    assert ran["output"].strip() == "64"
    assert server.cache.stats()["compiles"] == 1


def test_cold_and_warm_runs_are_identical(client):
    cold = client.run(SRC, nprocs=4)
    warm = client.run(SRC, nprocs=4)
    assert not cold["cached"] and warm["cached"] and warm["tier"] == "memory"
    assert warm["passes"] == []
    for field in ("output", "elapsed", "rank_times", "messages", "bytes",
                  "collectives", "workspace"):
        assert warm[field] == cold[field]


def test_run_reports_modeled_numbers_and_workspace(client):
    reply = client.run("s = 2.5;\nm = ones(2, 3);\nt = 'hi';\n", nprocs=2)
    assert reply["elapsed"] > 0 and len(reply["rank_times"]) == 2
    ws = reply["workspace"]
    assert ws["s"] == {"type": "double", "data": 2.5}
    assert ws["m"]["type"] == "matrix" and ws["m"]["shape"] == [2, 3]
    assert ws["t"] == {"type": "char", "data": "hi"}


def test_mfiles_travel_with_the_request(client):
    reply = client.run(SRC_FUN, nprocs=2, mfiles=MFILES)
    assert reply["output"].strip() == "42"


def test_trace_op_is_deterministic(client):
    first = client.trace(SRC, nprocs=4)
    second = client.trace(SRC, nprocs=4)
    assert first["trace"]["sha"] == second["trace"]["sha"]
    assert first["trace"]["events"] > 0
    assert "pass_report" in second["trace"]
    assert "[cache] hit" in second["trace"]["pass_report"]
    assert SRC.splitlines()[0].split(";")[0] in first["trace"]["profile"]


def test_run_with_trace_flag_returns_the_sha(client):
    reply = client.run(SRC, nprocs=2, trace=True)
    assert set(reply["trace"]) == {"sha", "events"}


def test_hosted_data_is_shared_across_sessions(server):
    default_manager().save_matrix("mem://srv/grid",
                                  np.arange(16.0).reshape(4, 4))
    src = ("a = load('mem://srv/grid');\n"
           "save('mem://srv/out', a);\n"
           "disp(sum(sum(a)));\n")
    with server.loopback() as one:
        assert one.run(src, nprocs=4)["output"].strip() == "120"
    with server.loopback() as two:
        assert two.run(src, nprocs=4)["cached"]
    out = default_manager().load_matrix("mem://srv/out")
    assert float(out.sum()) == 120.0


def test_stats_reports_cache_counters_and_schemes(client):
    client.run(SRC, nprocs=2)
    reply = client.stats()
    assert reply["cache"]["compiles"] == 1
    assert reply["counters"]["runs"] == 1
    assert reply["store_schemes"] == ["file", "mem", "s3"]


# ---------------------------------------------------------------------- #
# error paths — the session must survive every one of them
# ---------------------------------------------------------------------- #


def test_unknown_op_is_a_structured_error(client):
    with pytest.raises(ServiceError) as err:
        client._checked("frobnicate")
    assert "unknown op" in str(err.value)
    assert client.ping()["pong"]          # session survived


def test_missing_source_and_bad_nprocs(client):
    with pytest.raises(ServiceError):
        client.compile(None)
    with pytest.raises(ServiceError) as err:
        client.run(SRC, nprocs=0)
    assert "nprocs" in str(err.value)
    assert client.ping()["pong"]


def test_plan_native_points_at_the_request_field(client):
    with pytest.raises(ServiceError) as err:
        client.run(SRC, nprocs=2, plan={"scheme": "block", "native": "off"})
    assert err.value.kind == "OtterError"
    assert "top-level 'native'" in str(err.value)
    assert client.run(SRC, nprocs=2, native="off")["output"].strip() == "64"


def test_compile_diagnostics_carry_their_type(client):
    with pytest.raises(ServiceError) as err:
        client.run("x = undefined_fn(3);\n", nprocs=2)
    assert err.value.kind == "ResolutionError"
    assert "undefined_fn" in str(err.value)


def test_failed_run_releases_the_session_memory_tracker(client):
    """Regression: a failing run must not leave its thread-local memory
    tracker installed on the session thread (the stats op exposes the
    probe)."""
    with pytest.raises(ServiceError):
        client.run("x = ones(2, 2);\nerror('boom');\n", nprocs=1)
    reply = client.stats()
    assert reply["tracker_installed"] is False
    assert reply["counters"]["errors"] == 1
    # and the session still works
    assert client.run(SRC, nprocs=2)["output"].strip() == "64"


def test_watchdog_aborts_only_the_request(client):
    slow = ("s = 0;\n"
            "for i = 1:5000\n"
            "  s = s + sum(sum(ones(8, 8)));\n"
            "end\n"
            "disp(s);\n")
    with pytest.raises(ServiceError) as err:
        client.run(slow, nprocs=2, watchdog=1e-6)
    assert err.value.kind == "SpmdWatchdogError"
    assert client.run(SRC, nprocs=2)["output"].strip() == "64"
    assert client.stats()["tracker_installed"] is False


# ---------------------------------------------------------------------- #
# TCP
# ---------------------------------------------------------------------- #


def test_tcp_sessions_share_the_cache_and_shutdown_stops(server):
    host, port = server.start()
    try:
        with ServiceClient.connect(host, port) as one, \
                ServiceClient.connect(host, port) as two:
            cold = one.run(SRC, nprocs=4)
            warm = two.run(SRC, nprocs=4)
            assert not cold["cached"] and warm["cached"]
            assert warm["output"] == cold["output"]
            stats = one.stats()
            assert stats["counters"]["sessions"] >= 2
            assert two.shutdown()["ok"]
        assert server.stopped
    finally:
        server.stop()


def test_serve_forever_unblocks_on_shutdown(server):
    import threading

    host, port = server.start()
    waiter = threading.Thread(target=server.serve_forever, daemon=True)
    waiter.start()
    with ServiceClient.connect(host, port) as c:
        c.shutdown()
    waiter.join(timeout=5)
    assert not waiter.is_alive()
