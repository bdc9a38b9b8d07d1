"""Tests for trace persistence."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.params import SystemConfig
from repro.core.mmu_base import AccessOutcome
from repro.osmodel import Kernel
from repro.sim import lay_out
from repro.workloads import tracefile
from repro.workloads.trace import TraceRecord

records_strategy = st.lists(
    st.builds(TraceRecord,
              asid=st.integers(0, 0xFFFF),
              core=st.integers(0, 255),
              va=st.integers(0, (1 << 48) - 1),
              is_write=st.booleans(),
              gap=st.integers(0, 1000)),
    max_size=200)


def sample_records(n=10):
    return [TraceRecord(asid=1 + i % 3, core=i % 2, va=0x1000 + 8 * i,
                        is_write=i % 2 == 0, gap=2) for i in range(n)]


class TestBinaryFormat:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.trc"
        original = sample_records()
        assert tracefile.save(path, original) == len(original)
        loaded = list(tracefile.load(path))
        assert loaded == original

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "t.trc"
        path.write_bytes(b"NOTATRACE!!!")
        with pytest.raises(tracefile.TraceFormatError):
            list(tracefile.load(path))

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "t.trc"
        tracefile.save(path, sample_records(3))
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(tracefile.TraceFormatError):
            list(tracefile.load(path))

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "t.trc"
        assert tracefile.save(path, []) == 0
        assert list(tracefile.load(path)) == []

    @settings(max_examples=25)
    @given(records_strategy)
    def test_roundtrip_property(self, records):
        import os
        import tempfile

        fd, path = tempfile.mkstemp(suffix=".trc")
        os.close(fd)
        try:
            tracefile.save(path, records)
            assert list(tracefile.load(path)) == records
        finally:
            os.unlink(path)


#: One field of a record set outside the format's range.
OUT_OF_RANGE = {
    "asid-u16": {"asid": 70000},
    "asid-negative": {"asid": -1},
    "core-u8": {"core": 256},
    "va-negative": {"va": -0x1000},
    "va-u64": {"va": 1 << 64},
    "gap-negative": {"gap": -5},
    "gap-u32": {"gap": 1 << 32},
}


class TestBinaryRange:
    @pytest.mark.parametrize("field", sorted(OUT_OF_RANGE))
    def test_unrepresentable_record_leaves_no_file(self, tmp_path, field):
        path = tmp_path / "x.trc"
        records = sample_records(5)
        records[3] = dataclasses.replace(records[3], **OUT_OF_RANGE[field])
        name = field.split("-")[0]
        with pytest.raises(tracefile.TraceFormatError,
                           match=f"record 3: {name} "):
            tracefile.save(path, records)
        assert list(tmp_path.iterdir()) == []

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "x.trc"
        tracefile.save(path, sample_records(4))
        before = path.read_bytes()
        bad = [dataclasses.replace(sample_records(1)[0], asid=70000)]
        with pytest.raises(tracefile.TraceFormatError):
            tracefile.save(path, bad)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("name", ["x.trc", "x.csv"])
    def test_field_limits_round_trip(self, tmp_path, name):
        """The file name picks no format: any name holds the one."""
        path = tmp_path / name
        edge = [TraceRecord(asid=0xFFFF, core=255, va=(1 << 64) - 1,
                            is_write=True, gap=(1 << 32) - 1),
                TraceRecord(asid=0, core=0, va=0, is_write=False, gap=0)]
        tracefile.save(path, edge)
        assert path.read_bytes().startswith(tracefile.MAGIC)
        assert list(tracefile.load(path)) == edge


class TestTextRange:
    """A ``.csv`` name, once the text format's, gets the same range check."""

    @pytest.mark.parametrize("field", sorted(OUT_OF_RANGE))
    def test_out_of_range_field_located(self, tmp_path, field):
        path = tmp_path / "t.csv"
        records = sample_records(3)
        records[1] = dataclasses.replace(records[1], **OUT_OF_RANGE[field])
        name = field.split("-")[0]
        with pytest.raises(tracefile.TraceFormatError,
                           match=f"t.csv: record 1: {name} "):
            tracefile.save(path, records)
        assert not path.exists()


class TestDispatch:
    def test_extension_picks_binary(self, tmp_path):
        path = tmp_path / "t.trc"
        tracefile.save(path, sample_records(3))
        assert path.read_bytes().startswith(tracefile.MAGIC)


class TestWorkloadIntegration:
    def test_recorded_workload_replays_identically(self, tmp_path):
        """Save a generated trace, replay it through a simulation."""
        from repro.core import IdealMmu
        from repro.sim import Simulator

        kernel = Kernel(SystemConfig())
        workload = lay_out("stream", kernel)
        path = tmp_path / "stream.trc"
        tracefile.save(path, workload.trace(500))

        mmu = IdealMmu(kernel, kernel.config)
        pas = [AccessOutcome._make(
            mmu.access(r.core, r.asid, r.va, r.is_write)).translated_pa
               for r in tracefile.load(path)]
        assert len(pas) == 500
        for record, pa in zip(tracefile.load(path), pas):
            assert kernel.translate(record.asid, record.va).pa == pa
