"""Serialization of catalogs and transaction databases.

The on-disk format is JSON lines: the first line holds the catalog (items
with their promotion codes), every subsequent line one transaction.  The
format is self-contained — loading needs no external catalog — and round
trips exactly (see the property tests).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.core.items import Item, ItemCatalog
from repro.core.promotion import PromotionCode
from repro.core.sales import Sale, Transaction, TransactionDB
from repro.errors import SerializationError, ValidationError

__all__ = [
    "catalog_to_dict",
    "catalog_from_dict",
    "transaction_to_dict",
    "transaction_from_dict",
    "save_transactions",
    "load_transactions",
    "read_catalog",
    "iter_transactions",
    "write_transactions_stream",
]

_FORMAT = "repro-profit-mining-v1"


def catalog_to_dict(catalog: ItemCatalog) -> dict[str, Any]:
    """JSON-safe representation of a catalog."""
    return {
        "format": _FORMAT,
        "items": [
            {
                "item_id": item.item_id,
                "is_target": item.is_target,
                "promotions": [
                    {
                        "code": promo.code,
                        "price": promo.price,
                        "cost": promo.cost,
                        "packing": promo.packing,
                    }
                    for promo in item.promotions
                ],
            }
            for item in catalog
        ],
    }


def catalog_from_dict(payload: dict[str, Any]) -> ItemCatalog:
    """Inverse of :func:`catalog_to_dict`."""
    if payload.get("format") != _FORMAT:
        raise SerializationError(
            f"unexpected catalog format {payload.get('format')!r}; "
            f"expected {_FORMAT!r}"
        )
    try:
        items = [
            Item(
                item_id=entry["item_id"],
                is_target=bool(entry["is_target"]),
                promotions=tuple(
                    PromotionCode(
                        code=promo["code"],
                        price=float(promo["price"]),
                        cost=float(promo["cost"]),
                        packing=int(promo["packing"]),
                    )
                    for promo in entry["promotions"]
                ),
            )
            for entry in payload["items"]
        ]
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed catalog payload: {exc}") from exc
    return ItemCatalog.from_items(items)


def transaction_to_dict(transaction: Transaction) -> dict[str, Any]:
    """JSON-safe representation of one transaction."""
    return {
        "tid": transaction.tid,
        "sales": [
            [sale.item_id, sale.promo_code, sale.quantity]
            for sale in transaction.nontarget_sales
        ],
        "target": [
            transaction.target_sale.item_id,
            transaction.target_sale.promo_code,
            transaction.target_sale.quantity,
        ],
    }


def transaction_from_dict(payload: dict[str, Any]) -> Transaction:
    """Inverse of :func:`transaction_to_dict`."""
    try:
        nontarget = tuple(
            Sale(item_id=entry[0], promo_code=entry[1], quantity=float(entry[2]))
            for entry in payload["sales"]
        )
        target_entry = payload["target"]
        target = Sale(
            item_id=target_entry[0],
            promo_code=target_entry[1],
            quantity=float(target_entry[2]),
        )
        return Transaction(
            tid=int(payload["tid"]), nontarget_sales=nontarget, target_sale=target
        )
    except ValidationError:
        raise  # already names the bad value (e.g. a non-positive quantity)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed transaction payload: {exc}") from exc


def save_transactions(db: TransactionDB, path: str | Path) -> None:
    """Write ``db`` (catalog + transactions) as JSON lines to ``path``."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(catalog_to_dict(db.catalog)) + "\n")
        for transaction in db:
            handle.write(json.dumps(transaction_to_dict(transaction)) + "\n")


def load_transactions(path: str | Path) -> TransactionDB:
    """Read a database written by :func:`save_transactions`."""
    path = Path(path)
    catalog = read_catalog(path)
    return TransactionDB(
        catalog=catalog, transactions=list(iter_transactions(path))
    )


def read_catalog(path: str | Path) -> ItemCatalog:
    """Read only the catalog header line of a JSON-lines database."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        header = handle.readline()
    if not header.strip():
        raise SerializationError(f"{path}: empty file")
    try:
        return catalog_from_dict(json.loads(header))
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{path}: bad catalog header: {exc}") from exc


def iter_transactions(path: str | Path) -> Iterator[Transaction]:
    """Yield the transactions of a JSON-lines database one at a time.

    The streaming twin of :func:`load_transactions`: the file is read
    line by line, so a multi-million-transaction database never has to
    fit in memory — this is how the out-of-core store
    (:class:`~repro.core.engine.store.ChunkedTransactionStore`) ingests
    its input.  The catalog header is validated but not returned; use
    :func:`read_catalog` for it.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        header = handle.readline()
        if not header.strip():
            raise SerializationError(f"{path}: empty file")
        try:
            catalog_from_dict(json.loads(header))
        except json.JSONDecodeError as exc:
            raise SerializationError(f"{path}: bad catalog header: {exc}") from exc
        for line_no, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                transaction = transaction_from_dict(json.loads(line))
            except json.JSONDecodeError as exc:
                raise SerializationError(
                    f"{path}:{line_no}: bad transaction line: {exc}"
                ) from exc
            except (SerializationError, ValidationError) as exc:
                raise type(exc)(f"{path}:{line_no}: {exc}") from exc
            yield transaction


def write_transactions_stream(
    path: str | Path,
    catalog: ItemCatalog,
    transactions: Iterable[Transaction],
) -> int:
    """Stream ``transactions`` to ``path`` as JSON lines; returns the count.

    The streaming twin of :func:`save_transactions`: transactions are
    serialized one at a time as they arrive, so a generator (e.g.
    :meth:`~repro.data.quest.QuestGenerator.iter_generate` routed through
    :func:`~repro.data.datasets.iter_dataset_transactions`) can emit
    multi-million-transaction files without either side holding the
    dataset in RAM.  The output is byte-identical to
    :func:`save_transactions` on the same data.
    """
    path = Path(path)
    n_written = 0
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(catalog_to_dict(catalog)) + "\n")
        for transaction in transactions:
            handle.write(json.dumps(transaction_to_dict(transaction)) + "\n")
            n_written += 1
    return n_written
