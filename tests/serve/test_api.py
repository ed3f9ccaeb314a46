"""Tests for the status/score API (socket-free handle + real HTTP)."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.serve import StatusBoard, StatusServer, serve_stream

BATCH = 200


class TestStatusBoard:
    def test_initial_state(self):
        board = StatusBoard()
        status = board.status()
        assert status["phase"] == "starting"
        assert status["counters"] == {
            "ingested": 0,
            "scored": 0,
            "flagged": 0,
            "checkpointed": 0,
        }
        assert status["customers_tracked"] == 0

    def test_handle_routes(self):
        board = StatusBoard()
        board.set_phase("serving")
        board.set_scores({7: 0.25}, {7: True}, {7: ((4, 0.25),)})
        code, payload = board.handle("/status")
        assert code == 200
        assert payload["phase"] == "serving"
        assert payload["customers_tracked"] == 1
        code, payload = board.handle("/")
        assert code == 200
        code, payload = board.handle("/customers/7")
        assert code == 200
        assert payload == {
            "customer_id": 7,
            "stability": 0.25,
            "flagged": True,
            "alarm_windows": [[4, 0.25]],
        }

    def test_handle_rejections(self):
        board = StatusBoard()
        assert board.handle("/customers/99")[0] == 404
        assert board.handle("/customers/abc")[0] == 404
        assert board.handle("/manifest")[0] == 404
        assert board.handle("/nonsense")[0] == 404

    def test_nan_stability_is_null(self):
        board = StatusBoard()
        board.set_scores({1: float("nan")}, {1: False}, {1: ()})
        assert board.customer(1)["stability"] is None

    def test_manifest_route_after_set(self):
        board = StatusBoard()
        board.set_manifest({"experiment": "serve"})
        code, payload = board.handle("/manifest")
        assert code == 200
        assert payload["experiment"] == "serve"


class TestServeUpdatesBoard:
    def test_loop_keeps_board_current(
        self, stream_path, serve_config, tmp_path
    ):
        board = StatusBoard()
        result = serve_stream(
            stream_path,
            tmp_path / "ckpt",
            config=serve_config,
            batch_size=BATCH,
            status=board,
        )
        status = board.status()
        assert status["phase"] == "finished"
        assert status["counters"] == result.counters.as_dict()
        assert status["checkpoint"]["finished"] is True
        assert status["customers_tracked"] == len(result.scores)
        assert status["run"]["n_shards"] == 1
        assert board.handle("/manifest")[0] == 200
        # Per-customer scores match the result table.
        for cid, stability in result.scores.items():
            record = board.customer(cid)
            assert record["flagged"] == result.flags[cid]
            if record["stability"] is not None:
                assert record["stability"] == stability

    def test_interrupted_phase(self, stream_path, serve_config, tmp_path):
        board = StatusBoard()
        serve_stream(
            stream_path,
            tmp_path / "ckpt",
            config=serve_config,
            batch_size=BATCH,
            max_batches=2,
            status=board,
        )
        assert board.phase == "interrupted"

    def test_run_info_carries_the_digest_at_the_committed_offset(
        self, stream_path, serve_config, tmp_path
    ):
        from repro.serve import ServeCheckpoint
        from repro.synth.stream import stream_fingerprint

        for max_batches in (2, None):
            board = StatusBoard()
            serve_stream(
                stream_path,
                tmp_path / "ckpt",
                config=serve_config,
                batch_size=BATCH,
                max_batches=max_batches,
                status=board,
            )
            offset = ServeCheckpoint(tmp_path / "ckpt").read_cursor().stream_offset
            assert board.status()["run"]["stream_fingerprint"] == (
                stream_fingerprint(stream_path, offset)
            )
        # Finished: the prefix is every byte of the recorded stream.
        assert board.status()["run"]["stream_fingerprint"] == (
            stream_fingerprint(stream_path)
        )


class TestHttpServer:
    def _get(self, base: str, path: str):
        with urllib.request.urlopen(base + path) as response:
            return json.load(response)

    def test_routes_over_real_sockets(self):
        board = StatusBoard()
        board.set_phase("serving")
        board.set_scores({7: 0.83}, {7: True}, {7: ((4, 0.83),)})
        with StatusServer(board, port=0) as server:
            assert server.port > 0
            base = f"http://127.0.0.1:{server.port}"
            status = self._get(base, "/status")
            assert status["phase"] == "serving"
            customer = self._get(base, "/customers/7")
            assert customer["customer_id"] == 7
            assert customer["flagged"] is True
            with pytest.raises(urllib.error.HTTPError) as missing:
                self._get(base, "/customers/99")
            assert missing.value.code == 404

    def test_stop_without_start_is_safe(self):
        server = StatusServer(StatusBoard(), port=0)
        server.stop()  # must not deadlock or raise

    def test_stop_is_idempotent(self):
        server = StatusServer(StatusBoard(), port=0)
        server.start()
        server.stop()
        server.stop()
