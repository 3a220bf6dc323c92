"""Column data types and value coercion for the mini SQL engine."""

from __future__ import annotations

import datetime
import enum
from typing import Any


class DataType(enum.Enum):
    """Supported column types.

    The set mirrors what the TPC-H / SDSS / IMDB style schemas need rather
    than a full SQL type system.
    """

    INTEGER = "integer"
    FLOAT = "float"
    TEXT = "text"
    DATE = "date"
    BOOLEAN = "boolean"

_EPOCH = datetime.date(1970, 1, 1)


def coerce(value: Any, data_type: DataType) -> Any:
    """Coerce ``value`` into the Python representation of ``data_type``.

    ``None`` is passed through for every type (SQL NULL).  Dates are stored
    as :class:`datetime.date`; ISO strings are accepted.
    """
    if value is None:
        return None
    if data_type is DataType.INTEGER:
        return int(value)
    if data_type is DataType.FLOAT:
        return float(value)
    if data_type is DataType.TEXT:
        return str(value)
    if data_type is DataType.BOOLEAN:
        if isinstance(value, str):
            return value.strip().lower() in ("t", "true", "1", "yes")
        return bool(value)
    if data_type is DataType.DATE:
        if isinstance(value, datetime.date):
            return value
        if isinstance(value, (int, float)):
            return _EPOCH + datetime.timedelta(days=int(value))
        return datetime.date.fromisoformat(str(value))
    raise TypeError(f"unsupported data type: {data_type!r}")


def date_operand(value: Any) -> Any:
    """``value`` as the other side of a comparison with a DATE.

    An ISO string reads as a date (``o_orderdate = '1992-01-01'``); any other
    value is returned as is.
    """
    return datetime.date.fromisoformat(value) if isinstance(value, str) else value


def to_sortable(value: Any) -> Any:
    """Map a value to something orderable against other values of its column.

    ``None`` sorts first; dates are converted to ordinals so mixed
    comparisons in histograms stay numeric.
    """
    if value is None:
        return (0, 0)
    if isinstance(value, datetime.date):
        return (1, value.toordinal())
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    return (1, str(value))


def as_number(value: Any) -> float | None:
    """Best-effort numeric view of a value for histogram interpolation."""
    if value is None:
        return None
    if isinstance(value, datetime.date):
        return float(value.toordinal())
    if isinstance(value, bool):
        return float(int(value))
    if isinstance(value, (int, float)):
        return float(value)
    return None


def render_literal(value: Any) -> str:
    """Render a Python value as a SQL literal for display in plan conditions."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value) if isinstance(value, float) else str(value)
    if isinstance(value, datetime.date):
        return f"'{value.isoformat()}'"
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"
