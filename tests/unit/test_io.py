"""Unit tests for transaction serialization."""

from __future__ import annotations

import json
import re

import pytest

from repro.data.io import (
    catalog_from_dict,
    catalog_to_dict,
    iter_transactions,
    load_transactions,
    read_catalog,
    save_transactions,
    transaction_from_dict,
    transaction_to_dict,
    write_transactions_stream,
)
from repro.errors import SerializationError, ValidationError

#: A well-formed target sale for hand-written transaction payloads.
TARGET = ["Sunchip", "H", 1]


class TestCatalogRoundTrip:
    def test_round_trip(self, small_catalog):
        payload = catalog_to_dict(small_catalog)
        restored = catalog_from_dict(json.loads(json.dumps(payload)))
        assert {i.item_id for i in restored} == {i.item_id for i in small_catalog}
        assert restored.get("Sunchip").is_target
        assert restored.promotion("Sunchip", "M").price == 4.5
        assert restored.promotion("Bread", "P1").packing == 1

    def test_wrong_format_rejected(self):
        with pytest.raises(SerializationError, match="format"):
            catalog_from_dict({"format": "other", "items": []})

    def test_malformed_payload_rejected(self):
        with pytest.raises(SerializationError, match="malformed"):
            catalog_from_dict(
                {"format": "repro-profit-mining-v1", "items": [{"nope": 1}]}
            )


class TestTransactionRoundTrip:
    def test_round_trip(self, small_db):
        t = small_db[0]
        restored = transaction_from_dict(json.loads(json.dumps(transaction_to_dict(t))))
        assert restored == t

    def test_malformed_rejected(self):
        with pytest.raises(SerializationError, match="malformed"):
            transaction_from_dict({"tid": 0})

    @pytest.mark.parametrize(
        "payload",
        [
            {"tid": 0, "sales": [["Bread", "P1", "many"]], "target": TARGET},
            {"tid": 0, "sales": [], "target": ["Sunchip", "H", "lots"]},
            {"tid": "first", "sales": [], "target": TARGET},
        ],
    )
    def test_unparseable_numbers_rejected(self, payload):
        with pytest.raises(SerializationError, match="malformed"):
            transaction_from_dict(payload)

    def test_invalid_values_keep_their_validation_error(self):
        with pytest.raises(ValidationError, match="quantity"):
            transaction_from_dict(
                {"tid": 0, "sales": [["Bread", "P1", -2]], "target": TARGET}
            )


class TestFileRoundTrip:
    def test_save_load(self, small_db, tmp_path):
        path = tmp_path / "db.jsonl"
        save_transactions(small_db, path)
        restored = load_transactions(path)
        assert len(restored) == len(small_db)
        assert restored.transactions == small_db.transactions
        assert restored.total_recorded_profit() == pytest.approx(
            small_db.total_recorded_profit()
        )

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(SerializationError, match="empty"):
            load_transactions(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(SerializationError, match="catalog header"):
            load_transactions(path)

    def test_bad_line_reports_line_number(self, small_db, tmp_path):
        path = tmp_path / "trunc.jsonl"
        save_transactions(small_db, path)
        with path.open("a") as handle:
            handle.write("{broken\n")
        with pytest.raises(SerializationError, match=str(len(small_db) + 2)):
            load_transactions(path)

    def test_blank_lines_tolerated(self, small_db, tmp_path):
        path = tmp_path / "gaps.jsonl"
        save_transactions(small_db, path)
        content = path.read_text().replace("\n", "\n\n", 3)
        path.write_text(content)
        assert len(load_transactions(path)) == len(small_db)


class TestStreaming:
    """The streaming twins must match the batch functions exactly."""

    def test_iter_transactions_matches_load(self, small_db, tmp_path):
        path = tmp_path / "db.jsonl"
        save_transactions(small_db, path)
        streamed = list(iter_transactions(path))
        assert streamed == load_transactions(path).transactions

    def test_write_stream_is_byte_identical_to_save(self, small_db, tmp_path):
        batch_path = tmp_path / "batch.jsonl"
        stream_path = tmp_path / "stream.jsonl"
        save_transactions(small_db, batch_path)
        n = write_transactions_stream(
            stream_path, small_db.catalog, iter(small_db.transactions)
        )
        assert n == len(small_db)
        assert stream_path.read_bytes() == batch_path.read_bytes()

    def test_read_catalog_reads_only_the_header(self, small_db, tmp_path):
        path = tmp_path / "db.jsonl"
        save_transactions(small_db, path)
        # Corrupt every transaction line: the catalog must still read.
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0]] + ["{broken"] * 3) + "\n")
        assert read_catalog(path).target_ids() == small_db.catalog.target_ids()

    def test_iter_transactions_reports_line_numbers(self, small_db, tmp_path):
        path = tmp_path / "trunc.jsonl"
        save_transactions(small_db, path)
        with path.open("a") as handle:
            handle.write("{broken\n")
        with pytest.raises(SerializationError, match=str(len(small_db) + 2)):
            list(iter_transactions(path))

    @pytest.mark.parametrize(
        ("quantity", "error"),
        [("many", SerializationError), (-1, ValidationError), (0, ValidationError)],
    )
    def test_bad_values_report_path_and_line(self, small_db, tmp_path, quantity, error):
        path = tmp_path / "bad.jsonl"
        save_transactions(small_db, path)
        line = {"tid": 999, "sales": [["Bread", "P1", quantity]], "target": TARGET}
        with path.open("a") as handle:
            handle.write(json.dumps(line) + "\n")
        where = f"{path}:{len(small_db) + 2}: "
        with pytest.raises(error, match=f"^{re.escape(where)}"):
            list(iter_transactions(path))
        with pytest.raises(error, match=f"^{re.escape(where)}"):
            load_transactions(path)

    def test_iter_transactions_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(SerializationError, match="empty"):
            list(iter_transactions(path))
