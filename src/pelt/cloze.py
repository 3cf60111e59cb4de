"""Cloze query records and their tab-separated file format."""

from dataclasses import dataclass

from pelt.errors import FormatError, read_lines

CLOZE_HEADER = "query\tsubject\tanswer\trelation\tsubject_freq"


@dataclass(frozen=True)
class ClozeQuery:
    """One templated question with a single [MASK] slot.

    ``query`` keeps the mention markup ([[id|surface]]) so the subject span
    is recoverable for infusion; ``subject_freq`` is the subject's train
    corpus occurrence count.
    """

    query: str
    subject: str
    answer: str
    relation: str
    subject_freq: int


def save_cloze(queries, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write(CLOZE_HEADER + "\n")
        for q in queries:
            f.write(f"{q.query}\t{q.subject}\t{q.answer}\t{q.relation}\t{q.subject_freq}\n")


def load_cloze(path):
    lines = read_lines(path)
    if not lines or lines[0] != CLOZE_HEADER:
        raise FormatError(f"{path}: missing cloze header line")
    queries = []
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            query, subject, answer, relation, freq = line.split("\t")
            freq = int(freq)
        except ValueError:
            raise FormatError(f"{path}, line {number}: malformed cloze line {line!r}") from None
        if freq < 0:
            raise FormatError(f"{path}, line {number}: negative subject_freq {freq}")
        queries.append(ClozeQuery(query, subject, answer, relation, freq))
    return queries
