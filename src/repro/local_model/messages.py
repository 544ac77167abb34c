"""Message-size accounting.

The paper measures message sizes in bits and distinguishes algorithms that use
``O(log n)``-bit messages from those that need ``O(Delta log n)`` bits.  We
account message sizes in *words*, where one word is an ``O(log n)``-bit
quantity (an identifier, a color, or a counter bounded by a polynomial in
``n``).  A payload's size is the number of such scalar quantities it contains.
"""

from __future__ import annotations

from typing import Any


def payload_size_words(payload: Any) -> int:
    """Return the size of ``payload`` in ``O(log n)``-bit words.

    Scalars (integers, floats, booleans, ``None``, short strings) count as one
    word.  Containers count as the sum of their elements; mapping keys and
    values are both counted.  This mirrors how the paper charges message size:
    sending ``p`` counters over an edge costs ``p`` words
    (``O(p log n)`` bits).

    Parameters
    ----------
    payload:
        An arbitrary (nested) payload built from scalars, tuples, lists, sets,
        frozensets and dicts.

    Returns
    -------
    int
        The number of words needed to encode the payload.  The empty payload
        (``None``) costs one word (a tag saying "nothing").
    """
    if payload is None or isinstance(payload, (bool, int, float, str)):
        return 1
    if isinstance(payload, (tuple, list, set, frozenset)):
        if not payload:
            return 1
        return sum(payload_size_words(item) for item in payload)
    if isinstance(payload, dict):
        if not payload:
            return 1
        return sum(
            payload_size_words(key) + payload_size_words(value)
            for key, value in payload.items()
        )
    # Unknown objects are conservatively charged one word per attribute-free
    # scalar; callers should prefer plain containers for payloads.
    return 1
