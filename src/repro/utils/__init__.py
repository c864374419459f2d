"""Shared utilities: units, validation, and table rendering."""

from repro.utils.units import (
    GB,
    GBPS,
    KB,
    MB,
    US,
    MS,
    GbpsToBytesPerSec,
    format_bytes,
    format_seconds,
)
from repro.utils.tables import render_table
from repro.utils.validation import check_finite, check_non_negative, check_positive

__all__ = [
    "KB",
    "MB",
    "GB",
    "US",
    "MS",
    "GBPS",
    "GbpsToBytesPerSec",
    "format_bytes",
    "format_seconds",
    "render_table",
    "check_positive",
    "check_non_negative",
    "check_finite",
]
