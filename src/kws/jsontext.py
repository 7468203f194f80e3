"""Indented JSON text, equal byte for byte to ``json.dumps(value,
sort_keys=True, indent=2)``, built with json's C encoder where it can be.

With any ``indent``, json encodes through its pure-Python encoder, which
yields one string chunk per token and joins them at the end. Here every key
and scalar still goes through json's own encoder, so there is no second
float or string formatter. A list of integer lists is encoded compactly by
the C encoder and re-indented with ``str.replace``: its compact text holds
only digits, ``-``, ``,`` and brackets, which a regular expression checks
before the replacements run.
"""

from __future__ import annotations

import json
import re

_compact = json.JSONEncoder(separators=(",", ":")).encode
# A list of integer lists, compactly encoded: bools, floats, strings and
# deeper nesting all bring some other character or a second bracket in.
_INT_ROWS = re.compile(r"\[\[[-0-9,]*\](?:,\[[-0-9,]*\])*\]")


def _int_rows(compact: str, prefix: str) -> str:
    """The indented text of a list of integer lists, from its compact text."""
    inner, leaf = "\n" + prefix + "  ", "\n" + prefix + "    "
    body = (
        compact[1:-1]
        .replace(",", "," + leaf)
        .replace("]," + leaf + "[", "]," + inner + "[")
        .replace("[", "[" + leaf)
        .replace("]", inner + "]")
        .replace("[" + leaf + inner + "]", "[]")  # an empty inner list
    )
    return "[" + inner + body + "\n" + prefix + "]"


def indented_json(value, prefix: str = "") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` with ``prefix`` put
    after every newline, i.e. the text of ``value`` nested at that indent."""
    inner = prefix + "  "
    if isinstance(value, (list, tuple)) and value:
        if isinstance(value[0], (list, tuple)):
            compact = _compact(value)
            if _INT_ROWS.fullmatch(compact):
                return _int_rows(compact, prefix)
        items = [indented_json(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + prefix + "]"
    if isinstance(value, dict) and value:
        if not all(isinstance(key, str) for key in value):
            # json turns number, bool and null keys into strings; let it.
            return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + prefix)
        items = [
            f"{_compact(key)}: {indented_json(item, inner)}" for key, item in sorted(value.items())
        ]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + prefix + "}"
    return _compact(value)  # a scalar, [] or {}: no separator shows
