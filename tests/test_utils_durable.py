"""JsonlLog: the one JSON-lines reader and writer, and its torn-tail rule."""

import io
import json

import pytest

from repro.utils.durable import _TAIL_BLOCK, JsonlLog, _finish_tail


class CountingBuffer(io.BytesIO):
    """An in-memory file that counts the bytes read from it."""

    def __init__(self, data):
        super().__init__(data)
        self.bytes_read = 0

    def read(self, size=-1):
        data = super().read(size)
        self.bytes_read += len(data)
        return data


def lines(*records):
    return b"".join(json.dumps(r).encode() + b"\n" for r in records)


class TestRead:
    def test_complete_lines_and_a_torn_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(lines({"a": 1}) + b"[1]\n\n{oops\n" + b'{"b": 2')
        log = JsonlLog(str(path))
        assert list(log.read()) == [(1, {"a": 1}), (2, None), (4, None)]
        assert log.torn_tail

    def test_an_unterminated_object_is_a_record(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(lines({"a": 1}) + b'{"b": 2}')
        log = JsonlLog(str(path))
        assert list(log.read()) == [(1, {"a": 1}), (2, {"b": 2})]
        assert not log.torn_tail

    def test_missing_file_reads_empty(self, tmp_path):
        assert list(JsonlLog(str(tmp_path / "absent.jsonl")).read()) == []


class TestFinishTail:
    @pytest.mark.parametrize(
        "tail, finished",
        [(b'{"t": 1}', b'{"t": 1}\n'), (b'{"t": ', b""), (b"", b"")],
        ids=["object", "cut", "none"],
    )
    def test_reads_only_the_last_line(self, tail, finished):
        body = lines(*({"n": n, "pad": "x" * 60} for n in range(2000)))
        handle = CountingBuffer(body + tail)
        _finish_tail(handle)
        assert handle.getvalue() == body + finished
        assert handle.bytes_read <= _TAIL_BLOCK + 2 * len(tail)

    def test_a_tail_longer_than_one_block(self):
        body = lines({"a": 1})
        tail = b'{"pad": "' + b"x" * (3 * _TAIL_BLOCK)
        handle = CountingBuffer(body + tail)
        _finish_tail(handle)
        assert handle.getvalue() == body

    def test_size_after_cutting_a_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(lines({"a": 1}) + b'{"cut')
        with JsonlLog(str(path)) as log:
            assert log.tell() == len(lines({"a": 1}))

    def test_rewrite_then_append(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = JsonlLog(str(path))
        log.append({"old": 1})
        log.rewrite([{"b": 2}, {"a": 1}])
        log.append({"c": 3})
        log.close()
        assert path.read_bytes() == b'{"b": 2}\n{"a": 1}\n{"c": 3}\n'
