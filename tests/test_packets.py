"""Tests for packet record types."""

from __future__ import annotations

import pickle

import pytest

from repro.obs.core import DataBusGap
from repro.rdram.device import AccessIssue, ScheduledAccess
from repro.rdram.packets import (
    BusDirection,
    ColCommand,
    ColPacket,
    DataPacket,
    RowCommand,
    RowPacket,
)


class TestPacketArithmetic:
    def test_row_packet_spans_four_cycles(self):
        packet = RowPacket(RowCommand.ACT, bank=0, row=5, start=12)
        assert packet.end == 16

    def test_col_packet_spans_four_cycles(self):
        packet = ColPacket(ColCommand.RD, bank=1, row=0, column=3, start=8)
        assert packet.end == 12

    def test_data_packet_links_source_col(self):
        packet = DataPacket(BusDirection.READ, bank=2, start=30, source_col_start=20)
        assert packet.end == 34
        assert packet.source_col_start == 20


class TestPacketSemantics:
    def test_prer_has_no_row(self):
        packet = RowPacket(RowCommand.PRER, bank=0, row=None, start=0)
        assert packet.row is None

    def test_via_col_defaults_false(self):
        packet = RowPacket(RowCommand.PRER, bank=0, row=None, start=0)
        assert not packet.via_col

    def test_command_vocabulary(self):
        assert {c.value for c in RowCommand} == {"ACT", "PRER"}
        assert {c.value for c in ColCommand} == {"RD", "WR", "RET"}
        assert {d.value for d in BusDirection} == {"read", "write"}

    def test_packets_are_hashable_values(self):
        a = RowPacket(RowCommand.ACT, bank=0, row=1, start=0)
        b = RowPacket(RowCommand.ACT, bank=0, row=1, start=0)
        assert a == b
        assert len({a, b}) == 1


#: One instance of every trace/issue record, built by keyword.
GAP = DataBusGap(
    start=10,
    end=21,
    bank=3,
    direction="read",
    turnaround_until=10,
    bank_until=21,
    colbus_until=14,
    request_until=12,
)
COL = ColPacket(ColCommand.WR, bank=1, row=2, column=3, start=4)
DATA = DataPacket(BusDirection.WRITE, bank=1, start=7, source_col_start=4)
ACCESS = ScheduledAccess(col=COL, data=DATA, precharged=True)
RECORDS = [
    RowPacket(RowCommand.PRER, bank=0, row=None, start=8, via_col=True),
    COL,
    DATA,
    GAP,
    ACCESS,
    AccessIssue(
        access=ACCESS, first_cmd=0, activated=True, conflicts=1, page_hit=False
    ),
]
RECORD_IDS = [type(record).__name__ for record in RECORDS]


class TestRecordValues:
    """The trace and issue records are immutable, hashable values."""

    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_immutable(self, record):
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))

    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_equal_values_give_equal_records_and_hashes(self, record):
        twin = type(record)(*record)
        assert twin == record and twin is not record
        assert hash(twin) == hash(record)
        assert len({record, twin}) == 1

    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_positional_and_keyword_construction_agree(self, record):
        keywords = dict(zip(record._fields, record))
        assert type(record)(**keywords) == type(record)(*record) == record

    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_pickle_round_trip(self, record):
        restored = pickle.loads(pickle.dumps(record))
        assert restored == record
        assert type(restored) is type(record)

    def test_field_order_and_defaults(self):
        assert RowPacket._fields == ("command", "bank", "row", "start", "via_col")
        assert ColPacket._fields == ("command", "bank", "row", "column", "start")
        assert DataPacket._fields == (
            "direction", "bank", "start", "source_col_start"
        )
        assert DataBusGap._fields == (
            "start", "end", "bank", "direction", "turnaround_until",
            "bank_until", "colbus_until", "request_until",
        )
        assert ScheduledAccess._fields == ("col", "data", "precharged")
        assert AccessIssue._fields == (
            "access", "first_cmd", "activated", "conflicts", "page_hit"
        )
        assert RowPacket(RowCommand.ACT, 0, 1, 2).via_col is False

    def test_packet_kinds_with_overlapping_values_never_compare_equal(self):
        row = RowPacket(RowCommand.ACT, 1, 2, 3)
        col = ColPacket(ColCommand.RD, 1, 2, 3, 3)
        data = DataPacket(BusDirection.READ, 1, 3, 3)
        packets = [row, col, data]
        for a in packets:
            for b in packets:
                if a is not b:
                    assert a != b
        assert len(set(packets)) == 3

    def test_end_and_length(self):
        assert RowPacket(RowCommand.PRER, 0, None, 8, True).end == 12
        assert COL.end == 8
        assert DATA.end == 11
        assert GAP.length == 11
        assert DataBusGap(5, 5, 0, "write", 5, 5, 5, 5).length == 0
