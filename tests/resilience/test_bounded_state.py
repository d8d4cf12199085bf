"""Checkpoints sized by live state, and a recovery that reads the
journal once.

* a snapshot holds no response or decision history, so between a 1k-
  and a 4k-trip snapshot it grows only by the dedup order ids (and the
  one-float-per-KS-check similarity trace): at most 10 B/trip;
* recovery verifies every journal record — damage *before* the
  snapshot's seq still refuses the journal — but decodes only the tail.
"""

import json

import pytest

from repro.resilience import (
    CheckpointingService,
    JournalCorruptError,
    constant_cost_spec,
)
from repro.resilience import journal as journal_module

from .conftest import COST_VALUE, build_service, make_trips


def make_wrapped(directory, seed, checkpoint_every=25):
    return CheckpointingService(
        build_service(seed=seed),
        directory,
        checkpoint_every=checkpoint_every,
        durable=False,
        facility_cost_spec=constant_cost_spec(COST_VALUE),
    )


def newest_snapshot(wrapped):
    return wrapped.store.list()[-1][1]


class TestBoundedSnapshots:
    def test_snapshot_growth_is_the_dedup_allowance(self, tmp_path):
        trips = make_trips(4000, seed=3)
        wrapped = make_wrapped(tmp_path / "run", seed=3, checkpoint_every=1000)
        wrapped.serve(trips[:1000])
        small = newest_snapshot(wrapped)
        small_bytes = small.stat().st_size
        wrapped.serve(trips[1000:])
        large = newest_snapshot(wrapped)
        assert (small.name, large.name) == (
            "snapshot-0000001000.json", "snapshot-0000004000.json"
        )
        per_trip = (large.stat().st_size - small_bytes) / 3000
        assert per_trip <= 10.0, f"snapshot grows {per_trip:.1f} B/trip"
        wrapped.close()

    def test_payload_carries_no_history(self, tmp_path):
        wrapped = make_wrapped(tmp_path / "run", seed=4)
        wrapped.serve(make_trips(50, seed=4))
        payload = json.loads(newest_snapshot(wrapped).read_bytes().split(b"\n")[1])
        service = payload["service"]
        assert "responses" not in service
        assert "decisions" not in service["planner"]
        assert service["handled"] == 50
        wrapped.close()


def crashed_run(tmp_path, n=60):
    """A closed run of ``n`` trips: snapshot at seq 50, journal tail 51..n."""
    wrapped = make_wrapped(tmp_path / "run", seed=5)
    wrapped.serve(make_trips(n, seed=5))
    wrapped.close()
    return tmp_path / "run" / "journal.jsonl"


class TestDamageBeforeTheSnapshot:
    @pytest.mark.parametrize("where", ["body", "seq", "digest"])
    def test_flipped_byte_refused(self, tmp_path, where):
        path = crashed_run(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        line = lines[9]  # seq 10, far below the snapshot at seq 50
        at = {
            "body": line.index('"user_id":') + 10,
            "seq": line.index('{"seq":') + 7,
            "digest": 3,
        }[where]
        flipped = "1" if line[at] != "1" else "2"
        lines[9] = line[:at] + flipped + line[at + 1 :]
        path.write_text("".join(lines))
        with pytest.raises(JournalCorruptError, match="line 10"):
            CheckpointingService.recover(tmp_path / "run", durable=False)

    def test_sequence_jump_refused(self, tmp_path):
        path = crashed_run(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        del lines[9]  # an intact record vanished: seq 9 -> 11
        path.write_text("".join(lines))
        with pytest.raises(JournalCorruptError, match="sequence jump 9 -> 11"):
            CheckpointingService.recover(tmp_path / "run", durable=False)

    def test_torn_tail_still_tolerated(self, tmp_path):
        path = crashed_run(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) - 40])  # tear the final record
        recovered = CheckpointingService.recover(tmp_path / "run", durable=False)
        assert recovered.applied_seq == 59
        assert recovered.last_recovery.replayed == 9
        assert recovered.journal.next_seq == 60
        recovered.consistency_check()
        recovered.close()


class TestTailOnlyDecode:
    def test_recover_decodes_only_the_tail(self, tmp_path, monkeypatch):
        crashed_run(tmp_path)
        calls = []
        real = journal_module._decode_line

        def counting(line):
            calls.append(line)
            return real(line)

        monkeypatch.setattr(journal_module, "_decode_line", counting)
        recovered = CheckpointingService.recover(tmp_path / "run", durable=False)
        assert recovered.last_recovery.snapshot_seq == 50
        assert recovered.last_recovery.replayed == 10
        assert len(calls) == 10
        assert [json.loads(c.split(" ", 1)[1])["seq"] for c in calls] == list(
            range(51, 61)
        )
        recovered.close()

    def test_non_canonical_record_falls_back_to_a_full_decode(self, tmp_path):
        """A checksum-valid record whose body does not open with the
        canonical ``{"seq":N,"trip":`` prefix is still read correctly."""
        from repro.ioutil import checksum_hex

        path = crashed_run(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        record = json.loads(lines[4].split(" ", 1)[1])
        body = json.dumps({"trip": record["trip"], "seq": record["seq"]})
        digest = checksum_hex(body.encode("utf-8"))[:16]
        lines[4] = f"{digest} {body}\n"
        path.write_text("".join(lines))
        recovered = CheckpointingService.recover(tmp_path / "run", durable=False)
        assert recovered.applied_seq == 60
        assert len(recovered.journal.scan()) == 60
        recovered.close()
