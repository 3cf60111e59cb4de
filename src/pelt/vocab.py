"""Subword vocabulary with greedy longest-match tokenization."""

from pelt.errors import ConfigError, read_lines

PAD, MASK, UNK, LBRACKET, RBRACKET = "[PAD]", "[MASK]", "[UNK]", "(", ")"
SPECIALS = (PAD, MASK, UNK, LBRACKET, RBRACKET)
PAD_ID, MASK_ID, UNK_ID, LBRACKET_ID, RBRACKET_ID = range(5)


class Vocabulary:
    """Ordered subword inventory; specials occupy the fixed lowest indices."""

    def __init__(self, tokens):
        tokens = list(tokens)
        if tuple(tokens[: len(SPECIALS)]) != SPECIALS:
            raise ConfigError(f"vocabulary must start with the specials {SPECIALS}")
        self.tokens = tokens
        self.index = {}
        for i, tok in enumerate(tokens):
            if tok in self.index:
                raise ConfigError(f"duplicate vocabulary entry {tok!r}")
            self.index[tok] = i
        self._max_len = max(len(t) for t in tokens)
        self._chunks = {}  # whitespace chunk -> its token ids, filled by tokenize

    @classmethod
    def from_words(cls, words):
        """Specials followed by the sorted unique non-special words."""
        extra = sorted(set(words) - set(SPECIALS))
        return cls(list(SPECIALS) + extra)

    def __len__(self):
        return len(self.tokens)

    def __contains__(self, tok):
        return tok in self.index

    def id(self, tok):
        return self.index[tok]

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for tok in self.tokens:
                f.write(tok + "\n")

    @classmethod
    def load(cls, path):
        return cls([line for line in read_lines(path) if line])


def tokenize(text, vocab):
    """Greedy longest-match over whitespace-separated chunks; unmatched
    characters become UNK one at a time. Each chunk is matched once per
    vocabulary and remembered."""
    out = []
    for chunk in text.split():
        ids = vocab._chunks.get(chunk)
        if ids is None:
            ids = vocab._chunks[chunk] = []
            i = 0
            n = len(chunk)
            while i < n:
                match = None
                top = min(n - i, vocab._max_len)
                for length in range(top, 0, -1):
                    piece = chunk[i:i + length]
                    if piece in vocab.index:
                        match = piece
                        break
                if match is None:
                    ids.append(UNK_ID)
                    i += 1
                else:
                    ids.append(vocab.index[match])
                    i += len(match)
        out.extend(ids)
    return out
