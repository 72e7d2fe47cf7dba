"""The blocked digit parser behind formats.parse_csv's large bodies, and
where every CSV body ends.

It converts a CSV body of ASCII digits, ",", blanks and "\n" to an (n, n)
uint64 array with NumPy byte operations, a block of whole lines at a time,
and writes each block's cells straight into the result. It imports nothing
from the package, so formats imports it at module level with no cycle.
"""

from __future__ import annotations

import numpy as np

# a block: whole lines of about this many bytes, so that the temporaries
# stay small beside the (n, n) result
_BLOCK_BYTES = 1 << 17
# for k = 0..8, the mask of the low four bits (an ASCII digit's value) of the
# last k bytes that a little-endian word holds in memory
_DIGIT_BYTES = np.array(
    [0x0F0F0F0F0F0F0F0F >> 8 * (8 - k) << 8 * (8 - k) for k in range(9)], np.uint64
)


def _blank_run_start(text: str, start: int) -> int:
    """Where the run of " ", "\t" and "\n" that ends text begins, or start
    when it begins before start: the end of a CSV body for both array
    converters. Slices of doubling length are stripped from the end, so a
    long run costs no more than one pass, and a body that ends in a line of
    digits one short slice."""
    end, size = len(text), 64
    while end > start:
        lo = max(start, end - size)
        kept = len(text[lo:end].rstrip(" \t\n"))
        if kept:
            return lo + kept
        end, size = lo, 2 * size
    return start


def digit_counts(text: str, start: int = 0) -> np.ndarray | None:
    """The body text[start:] as a square uint64 array, converted in blocks of
    whole lines; None when it holds anything but ASCII digits, ",", " ",
    "\t" and "\n", a field that is not one run of at most 24 digits with
    blanks around it, other than n lines of n fields, or a cell above
    2**64 - 1.

    The body is read where it lies: each block is sliced and encoded on its
    own, which also checks that it is ASCII, so neither a copy of the whole
    body nor of its bytes outlives a block, and the text before start (a
    label row) may hold any characters.
    """
    end = _blank_run_start(text, start)  # the trailing blank lines go
    eol = text.find("\n", start, end)
    n = text.count(",", start, end if eol < 0 else eol) + 1
    if 2 * n * n > end - start + 1:  # each cell takes a digit and a separator
        return None
    counts = np.empty((n, n), np.uint64)
    cells = counts.reshape(-1)
    lo, filled = start, 0
    while lo < end:
        cut = -1
        if end - lo > _BLOCK_BYTES:  # whole lines of about _BLOCK_BYTES, or one longer line
            cut = text.rfind("\n", lo, lo + _BLOCK_BYTES)
            if cut < 0:
                cut = text.find("\n", lo + _BLOCK_BYTES, end)
        size = (end if cut < 0 else cut + 1) - lo
        # the block after 24 bytes that no word reads unmasked, its last line
        # ended as the others are
        buf = np.empty(24 + size + (cut < 0), np.uint8)
        try:
            raw = text[lo : lo + size].encode("ascii")
        except UnicodeEncodeError:
            return None
        buf[24 : 24 + size] = np.frombuffer(raw, np.uint8)
        buf[-1] = ord("\n")
        lo += size
        block = buf[24:]
        seps = np.flatnonzero(block - 48 > 9)  # every byte but a digit, for now
        chars = block[seps]
        ends_line = chars == ord("\n")
        # counted once for both checks below: dropping the blanks keeps every line end
        lines = np.count_nonzero(ends_line)
        kept = lines + np.count_nonzero(chars == ord(","))
        if kept == len(seps):  # no blanks: each field runs from one separator to the next
            stops = seps
            width = np.empty_like(seps)
            width[0] = seps[0]
            np.subtract(seps[1:], seps[:-1], out=width[1:])
            width[1:] -= 1
        else:
            blank = (chars == ord(" ")) | (chars == ord("\t"))
            if kept + np.count_nonzero(blank) != len(seps):
                return None
            seps, ends_line = seps[~blank], ends_line[~blank]
            # each field's digits must be one run, from a rise of digit to a
            # fall, between the field's own separators
            digit = block - 48 < 10
            bounds = np.flatnonzero(digit[1:] != digit[:-1]) + 1
            if digit[0]:
                bounds = np.concatenate(([0], bounds))
            starts, stops = bounds[::2], bounds[1::2]
            if len(stops) != len(seps) or (stops > seps).any() or (starts[1:] <= seps[:-1]).any():
                return None
            width = stops - starts
        fields = len(seps)
        if (
            fields % n
            or filled + fields > cells.size
            or lines * n != fields
            or not ends_line[n - 1 :: n].all()
        ):
            return None
        longest = int(width.max())
        if width.min() < 1 or longest > 24:
            return None
        out = cells[filled : filled + fields]
        filled += fields
        if longest == 1:
            np.subtract(buf[23:][stops], 48, out=out)  # each field's last byte
            continue
        # eight digit places at a time: word k is the 8 bytes that end 8k
        # bytes before a field's end, masked to the field's own digits, and
        # three multiply-shift steps fold its digits into one number
        words = np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,))
        for k in range((longest + 7) // 8):
            word = words[16 - 8 * k :][stops] & _DIGIT_BYTES[np.clip(width - 8 * k, 0, 8)]
            word = ((word * 2561) >> 8) & 0x00FF00FF00FF00FF  # pairs of digits
            word = ((word * 6553601) >> 16) & 0x0000FFFF0000FFFF  # fours
            word = (word * 42949672960001) >> 32  # the eight
            if k == 0:
                out[:] = word
            elif k == 1:
                out += word * 10**8
            elif (word > 1844).any() or (out[word == 1844] > 6744073709551615).any():
                return None  # above 2**64 - 1 = 1844|6744073709551615
            else:
                out += word * 10**16
    return counts if filled == cells.size else None

