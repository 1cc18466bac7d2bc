"""The bench history: torn tails and malformed lines."""

import json

import pytest

from repro.obs.history import HISTORY_SCHEMA, BenchHistory


def bench(n):
    return {"schema": "coruscant-bench-pim-ops/2", "kernels": [{"n": n}]}


def envelope(seq, n=None):
    return {"schema": HISTORY_SCHEMA, "seq": seq, "bench": bench(n or seq)}


class TestTornTail:
    """A ``repro bench`` killed mid-append, then the next run."""

    TAILS = {
        "parses": json.dumps(envelope(3), sort_keys=True),
        "cut": json.dumps(envelope(3), sort_keys=True)[:30],
    }

    @pytest.mark.parametrize("tail", sorted(TAILS))
    def test_records_around_a_torn_tail_survive(self, tmp_path, tail):
        path = tmp_path / "BENCH_history.jsonl"
        history = BenchHistory(str(path))
        history.append(bench(1))
        history.append(bench(2))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(self.TAILS[tail])

        before = [entry["seq"] for entry in history.load()]
        appended = history.append(bench(9))
        after = [entry["seq"] for entry in history.load()]
        if tail == "parses":
            assert before == [1, 2, 3] and after == [1, 2, 3, 4]
        else:
            assert before == [1, 2] and after == [1, 2, 3]
        assert appended["seq"] == after[-1]
        assert history.last() == bench(9)
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_corrupt_terminated_line_still_raises(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        BenchHistory(str(path)).append(bench(1))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": "coruscant-bench\n')
        with pytest.raises(ValueError, match=r"history\.jsonl:2: corrupt"):
            BenchHistory(str(path)).load()


class TestMalformedEntries:
    """Lines that parse but are no history entry name ``path:line``."""

    LINES = {
        "not-an-object": [1, 2],
        "no-bench": {"schema": HISTORY_SCHEMA, "seq": 1},
        "no-seq": {"schema": HISTORY_SCHEMA, "bench": bench(1)},
        "text-seq": {"schema": HISTORY_SCHEMA, "seq": "1", "bench": bench(1)},
    }

    @pytest.mark.parametrize("case", sorted(LINES))
    @pytest.mark.parametrize("call", ["load", "last", "append"])
    def test_raises_value_error_naming_the_line(self, tmp_path, case, call):
        path = tmp_path / "h.jsonl"
        lines = [envelope(1), self.LINES[case]]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        history = BenchHistory(str(path))
        args = (bench(2),) if call == "append" else ()
        with pytest.raises(ValueError, match=r"h\.jsonl:2: "):
            getattr(history, call)(*args)
