"""Byte-level tokenizer and sequence framing.

The vocabulary is the 256 byte values plus four specials. Bytes need no
learned vocabulary and keep round-trips exact for arbitrary input.
"""

from __future__ import annotations

from .errors import VocabularyError

N_BYTES = 256
BOS = 256
EOS = 257
PAD = 258
SEP = 259
VOCAB_SIZE = 260


def detokenize(ids) -> bytes:
    """Map ids back to bytes, dropping the special tokens."""
    out = bytearray()
    for i in ids:
        i = int(i)
        if not 0 <= i < VOCAB_SIZE:
            raise VocabularyError(f"token id {i} outside [0, {VOCAB_SIZE})")
        if i < N_BYTES:
            out.append(i)
    return bytes(out)


def frame_prompt(prompt: bytes) -> list[int]:
    """[BOS] prompt [SEP]: what the model sees before generating."""
    return [BOS, *prompt, SEP]


def frame_pair(prompt: bytes, response: bytes) -> list[int]:
    """[BOS] prompt [SEP] response [EOS]: teacher-forcing layout."""
    return [BOS, *prompt, SEP, *response, EOS]
