"""Heuristic string matching over a hyperlinked page graph.

Anchors (pre-linked mentions) seed a frontier of pages; each round expands
the frontier to its graph neighbors and assigns every candidate name that
matches exactly one frontier page by normalized alias. Uniqueness is
evaluated against the whole frontier before anything is assigned, so the
outcome cannot depend on candidate order. Unmatched candidates are a normal
outcome, not an error.

Page graph file: line-oriented records
  PAGE <tab> id <tab> title [<tab> alias]...
  EDGE <tab> src <tab> dst <tab> kind
  DOC  <tab> id <tab> text with [[page_id|anchor text]] and {{candidate}} markup
"""

import re
from dataclasses import dataclass, field

from pelt.corpus import MENTION_RE
from pelt.errors import FormatError, read_lines

CANDIDATE_RE = re.compile(r"\{\{([^}]+)\}\}")


def normalize_alias(text):
    """Case folding plus whitespace collapse; no stemming."""
    return " ".join(text.split()).casefold()


@dataclass(frozen=True)
class Page:
    page_id: str
    title: str
    aliases: frozenset  # normalized; always contains the title


@dataclass(frozen=True)
class Anchor:
    page_id: str
    text: str


@dataclass(frozen=True)
class Candidate:
    index: int  # occurrence order within the document
    text: str


@dataclass(frozen=True)
class Document:
    doc_id: str
    anchors: tuple
    candidates: tuple


@dataclass
class PageGraph:
    pages: dict  # id -> Page
    edges: list  # (src, dst, kind)
    docs: list
    neighbors: dict = field(default_factory=dict)  # undirected adjacency

    def __post_init__(self):
        for src, dst, _ in self.edges:
            self.neighbors.setdefault(src, set()).add(dst)
            self.neighbors.setdefault(dst, set()).add(src)


def load_page_graph(path):
    """Read a page graph; a record may name a page declared further down."""
    pages = {}
    edges = []
    docs = {}
    refs = []  # (line, page id, error): checked once every PAGE is read
    for lineno, line in enumerate(read_lines(path), 1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        kind = parts[0]
        if kind == "PAGE":
            if len(parts) < 3:
                raise FormatError(f"{path}:{lineno}: PAGE needs id and title")
            pid, title = parts[1], parts[2]
            if pid in pages:
                raise FormatError(f"{path}:{lineno}: page {pid!r} appears twice")
            aliases = frozenset(normalize_alias(a) for a in parts[2:] if a.strip())
            pages[pid] = Page(pid, title, aliases)
        elif kind == "EDGE":
            if len(parts) != 4:
                raise FormatError(f"{path}:{lineno}: EDGE needs src, dst, kind")
            src, dst = parts[1], parts[2]
            edges.append((src, dst, parts[3]))
            refs += [(lineno, pid, f"edge ({src}, {dst}) references a missing page")
                     for pid in (src, dst)]
        elif kind == "DOC":
            if len(parts) < 3:
                raise FormatError(f"{path}:{lineno}: DOC needs id and text")
            did, text = parts[1], "\t".join(parts[2:])
            if did in docs:
                raise FormatError(f"{path}:{lineno}: doc {did!r} appears twice")
            anchors = tuple(Anchor(m.group(1), m.group(2))
                            for m in MENTION_RE.finditer(text))
            candidates = tuple(Candidate(i, m.group(1))
                               for i, m in enumerate(CANDIDATE_RE.finditer(text)))
            docs[did] = Document(did, anchors, candidates)
            refs += [(lineno, a.page_id, f"doc {did}: anchor to missing page {a.page_id}")
                     for a in anchors]
        else:
            raise FormatError(f"{path}:{lineno}: unknown record type {kind!r}")
    for lineno, pid, error in refs:
        if pid not in pages:
            raise FormatError(f"{path}:{lineno}: {error}")
    return PageGraph(pages, edges, list(docs.values()))


def build_alias_table(pages):
    """Normalized alias -> set of page ids; ambiguous aliases map to several."""
    table = {}
    for page in pages.values():
        for alias in page.aliases:
            table.setdefault(alias, set()).add(page.page_id)
    return table


@dataclass(frozen=True)
class RoundTrace:
    frontier: frozenset  # S at the top of the round
    expanded: frozenset  # S' = neighbor pages of S
    assigned: dict  # candidate -> page id decided this round


@dataclass
class LinkAssignment:
    assigned: dict  # Candidate -> (page id, round number)
    unresolved: list  # Candidates never uniquely matched
    trace: list  # RoundTrace per iteration


def link_iterate(doc, graph):
    """Iterative neighbor-based disambiguation of a document's candidates.

    Runs in two phases per round: every remaining candidate is matched
    against the full expanded frontier first, then all unique matches are
    assigned together. Terminates when a round assigns nothing; at most
    len(candidates) + 1 rounds run.
    """
    alias_table = build_alias_table(graph.pages)
    frontier = {a.page_id for a in doc.anchors}
    remaining = list(doc.candidates)
    assigned = {}
    trace = []
    round_no = 0
    while True:
        round_no += 1
        expanded = set()
        for pid in frontier:
            expanded |= graph.neighbors.get(pid, set())
        this_round = {}
        for cand in remaining:
            hits = alias_table.get(normalize_alias(cand.text), set()) & expanded
            if len(hits) == 1:
                this_round[cand] = next(iter(hits))
        trace.append(RoundTrace(frozenset(frontier), frozenset(expanded),
                                dict(this_round)))
        for cand, pid in this_round.items():
            assigned[cand] = (pid, round_no)
        remaining = [c for c in remaining if c not in this_round]
        frontier = set(this_round.values())
        if not frontier:
            break
    return LinkAssignment(assigned, remaining, trace)


def link_document_rows(doc, graph):
    """TSV rows (doc, span text, page or UNRESOLVED, round) for one document."""
    result = link_iterate(doc, graph)
    rows = []
    for cand in doc.candidates:
        if cand in result.assigned:
            pid, rnd = result.assigned[cand]
            rows.append(f"{doc.doc_id}\t{cand.text}\t{pid}\t{rnd}")
        else:
            rows.append(f"{doc.doc_id}\t{cand.text}\tUNRESOLVED\t-")
    return rows
