"""Seeded synthetic fact corpus with frequency-controlled entities.

The generator emits three artifacts from one grammar: a train corpus whose
entity mention counts follow a Zipf profile, a lookup corpus that is
sentence-disjoint from train and covers every entity (including entities
with train frequency zero), and a cloze set holding one question per entity
whose completion never appears verbatim in train. Corpus files are UTF-8,
one sentence per line, with mentions marked inline as [[entity_id|surface]].
"""

import os
import re
from dataclasses import dataclass

import numpy as np

from pelt.cloze import ClozeQuery, save_cloze
from pelt.errors import ConfigError, ContractError, FormatError, read_lines
from pelt.vocab import MASK_ID, UNK_ID, Vocabulary, tokenize

MENTION_RE = re.compile(r"\[\[([^|\]]+)\|([^\]]+)\]\]")

# File name of each artifact in a data directory, by key.
DATA_FILES = {"vocab": "vocab.txt", "catalog": "catalog.tsv", "train": "train.txt",
              "lookup": "lookup.txt", "cloze": "cloze.tsv"}

OCCURRENCE_CAP = 256  # default distinct occurrences indexed per entity

FREQ_BUCKETS = ((0, 10), (10, 50), (50, 100), (100, None))
BUCKET_LABELS = ("[0,10)", "[10,50)", "[50,100)", "[100,inf)")


def bucket_label(freq):
    """Map a train-corpus frequency to its bucket label."""
    for (lo, hi), label in zip(FREQ_BUCKETS, BUCKET_LABELS):
        if freq >= lo and (hi is None or freq < hi):
            return label
    raise ValueError(f"negative frequency {freq}")


# ---------------------------------------------------------------------------
# Grammar
# ---------------------------------------------------------------------------

# Decoration slot fillers of varying length; brackets never appear here so
# bracketed content always carries entity identity (see the subject forms).
_DECORATIONS = (
    "",
    "today",
    "apparently",
    "by all accounts",
    "lately",
    "evermore",
    "so they say",
    "these days",
    "without a doubt",
    "as ever",
    "famously",
    "truly",
)

# How the subject surfaces in a sentence. "appos" duplicates the identity in
# brackets; "anon" hides the subject behind a placeholder; "noise" replaces
# it with a nonce syllable pair that names no entity. In the last two the
# object is only predictable by reading the bracketed identity, which trains
# the circuit infusion relies on, and "noise" additionally teaches that an
# unfamiliar subject carries no signal.
_SUBJECT_FORMS = ("plain", "appos", "anon", "noise")

_SHARED_SYLLABLES = (
    "zor", "vak", "mel", "tir", "fos", "gan", "lup", "rek", "sil", "dov",
    "nar", "bek", "tul", "pim", "rol", "hax", "jun", "kel", "wim", "dax",
    "quv", "yol", "fen", "bax", "nim", "sut", "zam", "pol", "cru", "myt",
    "lix", "vop", "gri", "tez", "nuk", "dul", "kro", "wez", "fim", "gop",
    "rux", "tav", "nol", "pev",
)


@dataclass(frozen=True)
class Relation:
    name: str
    templates: tuple
    answers: tuple  # answers[0] is the hub answer (dominant in train)


def default_relations():
    return (
        Relation(
            "lives_in",
            (
                "{s} {d} lives in {a}",
                "{s} {d} resides in {a}",
                "the town of {a} is home to {s} {d}",
                "{s} {d} settled in {a}",
            ),
            ("paris", "tokyo", "cairo", "oslo", "lima", "quito",
             "milan", "dakar", "perth", "kyoto"),
        ),
        Relation(
            "works_as",
            (
                "{s} {d} works as a {a}",
                "{s} {d} earns a living as a {a}",
                "the duties of a {a} occupy {s} {d}",
                "{s} {d} trained as a {a}",
            ),
            ("baker", "doctor", "pilot", "farmer", "singer", "tailor",
             "miner", "judge", "clerk", "guard"),
        ),
        Relation(
            "born_in",
            (
                "{s} {d} was born in {a}",
                "{s} {d} celebrates a birthday in {a}",
                "the month of {a} saw the birth of {s} {d}",
                "{s} {d} arrived in the world in {a}",
            ),
            ("january", "march", "july", "october", "april", "june",
             "september", "december", "august", "february"),
        ),
        Relation(
            "likes",
            (
                "{s} {d} likes {a}",
                "{s} {d} enjoys {a}",
                "a bowl of {a} delights {s} {d}",
                "{s} {d} prefers {a}",
            ),
            ("rice", "mango", "bread", "olives", "cheese", "honey",
             "pasta", "beans", "figs", "soup"),
        ),
    )


@dataclass(frozen=True)
class CorpusConfig:
    n_entities: int = 50
    zipf_exponent: float = 1.0
    entity_slot_budget: int = 1800
    lookup_per_entity: int = 24
    zero_train_entities: int = 5
    seed: int = 42

    def __post_init__(self):
        if self.n_entities < 2:
            raise ConfigError(f"need at least 2 entities, got {self.n_entities}")
        if self.zero_train_entities > self.n_entities // 2:
            raise ConfigError("too many zero-train entities")
        if (min(self.seed, self.entity_slot_budget, self.lookup_per_entity,
                self.zero_train_entities) < 0
                or not 0 <= self.zipf_exponent < float("inf")):
            raise ConfigError("need seed, entity_slot_budget, lookup_per_entity, "
                              "zero_train_entities >= 0 and a finite zipf_exponent >= 0")


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntityInfo:
    entity_id: str
    surface: str
    pieces: tuple
    facts: dict  # relation name -> answer word
    train_freq: int
    probe_relation: str
    probe_template: int


class EntityCatalog:
    def __init__(self, entries):
        self.entries = list(entries)
        self.by_id = {e.entity_id: e for e in self.entries}
        if len(self.by_id) != len(self.entries):
            raise ConfigError("duplicate entity ids in catalog")

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, entity_id):
        return self.by_id[entity_id]

    def ids(self):
        return [e.entity_id for e in self.entries]

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tsurface\tpieces\tfreq\tprobe_relation\tprobe_template\tfacts\n")
            for e in self.entries:
                facts = ";".join(f"{r}={a}" for r, a in sorted(e.facts.items()))
                f.write(f"{e.entity_id}\t{e.surface}\t{','.join(e.pieces)}\t{e.train_freq}"
                        f"\t{e.probe_relation}\t{e.probe_template}\t{facts}\n")

    @classmethod
    def load(cls, path):
        lines = read_lines(path)
        if not lines or not lines[0].startswith("id\t"):
            raise FormatError(f"{path}: missing catalog header")
        entries = []
        for number, line in enumerate(lines[1:], start=2):
            if not line:
                continue
            try:
                eid, surface, pieces, freq, prel, ptmpl, facts = line.split("\t")
                fdict = dict(kv.split("=", 1) for kv in facts.split(";") if kv)
                freq, ptmpl = int(freq), int(ptmpl)
            except ValueError:
                raise FormatError(f"{path}, line {number}: malformed catalog line "
                                  f"{line!r}") from None
            if freq < 0:
                raise FormatError(f"{path}, line {number}: negative freq {freq}")
            entries.append(EntityInfo(eid, surface, tuple(pieces.split(",")), fdict,
                                      freq, prel, ptmpl))
        return cls(entries)


# ---------------------------------------------------------------------------
# Sentences and occurrences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mention:
    entity_id: str
    start: int
    end: int  # exclusive


@dataclass(frozen=True)
class Sentence:
    tokens: tuple
    mentions: tuple = ()

    def __post_init__(self):
        last = 0
        for m in sorted(self.mentions, key=lambda m: m.start):
            if not (0 <= m.start < m.end <= len(self.tokens)):
                raise ContractError(f"mention span ({m.start},{m.end}) out of bounds")
            if m.start < last:
                raise ContractError("overlapping mention spans")
            last = m.end


def parse_marked_line(line, vocab):
    """Parse one corpus line with [[id|surface]] markup into a Sentence."""
    tokens = []
    mentions = []
    pos = 0
    for match in MENTION_RE.finditer(line):
        before = line[pos:match.start()]
        tokens.extend(tokenize(before, vocab))
        piece_ids = tokenize(match.group(2), vocab)
        mentions.append(Mention(match.group(1), len(tokens), len(tokens) + len(piece_ids)))
        tokens.extend(piece_ids)
        pos = match.end()
    tokens.extend(tokenize(line[pos:], vocab))
    return Sentence(tuple(tokens), tuple(mentions))


def parse_corpus(lines, vocab):
    return [parse_marked_line(line, vocab) for line in lines if line.strip()]


def read_corpus_file(path):
    return [line for line in read_lines(path) if line.strip()]


def strip_markup(line):
    """Surface form of a marked-up line, whitespace-normalized."""
    return " ".join(MENTION_RE.sub(lambda m: m.group(2), line).split())


@dataclass(frozen=True)
class Occurrence:
    tokens: tuple  # mention span collapsed to a single [MASK]
    mask_pos: int


def index_occurrences(entity_ids, sentences, cap=OCCURRENCE_CAP):
    """First-encounter, deduplicated, capped masked occurrences per entity.

    One pass over ``sentences`` indexes every requested entity; returns a
    tuple of Occurrence per id, in request order, empty for an entity with
    no mention. Every mention yields its own occurrence with only its own
    span replaced by a single [MASK]; duplicates (identical masked token
    sequences) are dropped before the cap applies, and mentions of an
    entity that has reached the cap are skipped unexamined.
    """
    if isinstance(entity_ids, str):
        raise ContractError("index_occurrences takes a collection of entity ids")
    if cap < 1:
        raise ConfigError(f"occurrence cap must be >= 1, got {cap}")
    items = {eid: [] for eid in entity_ids}
    seen = {eid: set() for eid in items}
    for s in sentences:
        for m in s.mentions:
            found = items.get(m.entity_id)
            if found is None or len(found) == cap:
                continue
            masked = s.tokens[:m.start] + (MASK_ID,) + s.tokens[m.end:]
            if masked.count(MASK_ID) != 1:
                raise ContractError("source sentence already contains a [MASK] token")
            if masked in seen[m.entity_id]:
                continue
            seen[m.entity_id].add(masked)
            found.append(Occurrence(masked, m.start))
    return {eid: tuple(found) for eid, found in items.items()}


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def zipf_frequencies(config):
    """Per-rank train mention counts: floor(budget * i^-s / Z), tail zeroed."""
    n, s = config.n_entities, config.zipf_exponent
    weights = np.arange(1, n + 1, dtype=np.float64) ** (-s)
    z = weights.sum()
    freqs = np.floor(config.entity_slot_budget * weights / z).astype(int)
    if config.zero_train_entities:
        freqs[n - config.zero_train_entities:] = 0
    return freqs.tolist()


def _build_entities(config, rng):
    """Syllable pairs with bounded reuse so the bag of pieces stays
    discriminative; an aggregated output representation can only carry the
    bag, not the order."""
    shared = list(_SHARED_SYLLABLES)
    pairs = [(a, b) for a in shared for b in shared if a != b]
    if len(pairs) < config.n_entities:
        raise ConfigError("syllable pool too small for the requested entity count")
    order = rng.permutation(len(pairs))
    use = {s: 0 for s in shared}
    chosen = []
    for idx in order:
        a, b = pairs[idx]
        if use[a] >= 3 or use[b] >= 3:
            continue
        use[a] += 1
        use[b] += 1
        chosen.append((a, b))
        if len(chosen) == config.n_entities:
            return chosen
    raise ConfigError("could not draw enough low-reuse syllable pairs")


def _assign_answers(surfaces, freqs, relations, rng):
    """Profile-correlated fact assignment.

    Every entity follows one profile: a fixed answer per relation (profile p
    takes index p of every pool), modelling how real facts correlate through
    entity types. All high-frequency entities share profile 0, so the
    pattern prior for an unidentifiable subject lands on profile-0 answers.
    Zero-train entities take a profile that is (a) held by some trained
    entity, so its answers are attested objects, (b) never profile 0, and
    (c) not the profile of any entity sharing one of their syllables, so
    neither the prior nor subword association can guess their facts; only
    context aggregated from the lookup corpus can.
    """
    n = len(surfaces)
    n_profiles = min(len(rel.answers) for rel in relations)
    profiles = np.full(n, -1, dtype=int)
    for i in range(n):
        if freqs[i] == 0:
            continue
        profiles[i] = 0 if freqs[i] >= 100 else int(rng.integers(1, n_profiles))
    trained = {int(p) for i, p in enumerate(profiles) if freqs[i] >= 10}
    taken = set()
    for i in range(n):
        if freqs[i] > 0:
            continue
        neighbor_profiles = {
            int(profiles[j]) for j in range(n)
            if freqs[j] > 0 and set(surfaces[j]) & set(surfaces[i])
        }
        usable = sorted((trained - {0}) - neighbor_profiles - taken)
        if not usable:
            usable = sorted((trained - {0}) - neighbor_profiles)
        if not usable:
            usable = [p for p in range(1, n_profiles) if p not in neighbor_profiles]
        if not usable:
            raise ConfigError("no dodgeable profile left for a zero-train entity")
        profiles[i] = int(rng.choice(usable))
        taken.add(int(profiles[i]))
    return [{rel.name: rel.answers[profiles[i]] for rel in relations}
            for i in range(n)]


def _mention(entity):
    return f"[[{entity.entity_id}|{entity.surface}]]"


def _subject(entity, form, nonce=None):
    m = _mention(entity)
    if form == "plain":
        return m
    if form == "appos":
        return f"{m} ( {m} )"
    if form == "anon":
        return f"someone ( {m} )"
    if form == "noise":
        return f"{nonce} ( {m} )"
    raise ConfigError(f"unknown subject form {form!r}")


def _render(template, entity, answer, deco, form="plain", nonce=None):
    text = template.replace("{s}", _subject(entity, form, nonce))
    text = text.replace("{a}", answer).replace("{d}", deco)
    return " ".join(text.split())


def _nonce_pool(catalog_surfaces, rng, count=40):
    """Syllable pairs that name no catalog entity, for the noise form."""
    shared = list(_SHARED_SYLLABLES)
    pairs = ["".join((a, b)) for a in shared for b in shared
             if a != b and "".join((a, b)) not in catalog_surfaces]
    order = rng.permutation(len(pairs))
    return [pairs[i] for i in order[:count]]


@dataclass
class CorpusBundle:
    config: CorpusConfig
    vocab: Vocabulary
    catalog: EntityCatalog
    train_lines: list
    lookup_lines: list
    queries: list

    def save(self, outdir):
        os.makedirs(outdir, exist_ok=True)
        path = {key: os.path.join(outdir, name) for key, name in DATA_FILES.items()}
        with open(path["train"], "w", encoding="utf-8") as f:
            f.write("".join(line + "\n" for line in self.train_lines))
        with open(path["lookup"], "w", encoding="utf-8") as f:
            f.write("".join(line + "\n" for line in self.lookup_lines))
        self.vocab.save(path["vocab"])
        self.catalog.save(path["catalog"])
        save_cloze(self.queries, path["cloze"])


def _grammar_words(relations):
    words = {"someone"}
    words |= set(_SHARED_SYLLABLES)
    for rel in relations:
        words.update(rel.answers)
        for tmpl in rel.templates:
            for w in tmpl.split():
                if w not in ("{s}", "{a}", "{d}"):
                    words.add(w)
    for deco in _DECORATIONS:
        words.update(deco.split())
    words.discard("(")
    words.discard(")")
    return words


def generate_corpus(config):
    """Deterministic function of the config (seed included)."""
    rng = np.random.default_rng(config.seed)
    relations = default_relations()
    vocab = Vocabulary.from_words(_grammar_words(relations))

    freqs = zipf_frequencies(config)
    surfaces = _build_entities(config, rng)
    n_tmpl = min(len(r.templates) for r in relations)

    for rel in relations:
        for ans in rel.answers:
            if ans not in vocab or len(tokenize(ans, vocab)) != 1:
                raise ConfigError(f"answer {ans!r} is not a single vocabulary token")

    all_facts = _assign_answers(surfaces, freqs, relations, rng)
    entries = []
    for i, pieces in enumerate(surfaces):
        surface = "".join(pieces)
        got = tokenize(surface, vocab)
        want = [vocab.id(p) for p in pieces]
        if got != want or len(got) < 2 or UNK_ID in got:
            raise ConfigError(f"surface {surface!r} does not decompose into its syllables")
        probe_rel = relations[i % len(relations)].name
        probe_tmpl = (i // len(relations)) % n_tmpl
        entries.append(EntityInfo(f"ent_{i:03d}", surface, tuple(pieces), all_facts[i],
                                  freqs[i], probe_rel, probe_tmpl))
    catalog = EntityCatalog(entries)

    decos = list(_DECORATIONS)
    nd = len(decos)
    rel_by_name = {r.name: r for r in relations}

    nonces = _nonce_pool({e.surface for e in catalog}, rng)
    train_lines = []
    lookup_lines = []
    for i, ent in enumerate(catalog):
        # the empty decoration (index 0) stays in every entity's train pool;
        # probe queries are rendered without decoration
        lookup_decos = {1 + ((i + j) % (nd - 1)) for j in range(4)}
        train_combos = []
        lookup_combos = []
        for rel in relations:
            for t_idx, tmpl in enumerate(rel.templates[:n_tmpl]):
                held_out = rel.name == ent.probe_relation and t_idx == ent.probe_template
                for d_idx in range(nd):
                    for form in _SUBJECT_FORMS:
                        combo = (rel.name, tmpl, decos[d_idx], form)
                        if d_idx in lookup_decos:
                            lookup_combos.append(combo)
                        elif not held_out:
                            train_combos.append(combo)
        order_t = rng.permutation(len(train_combos))
        order_l = rng.permutation(len(lookup_combos))
        for k in range(ent.train_freq):
            rel_name, tmpl, deco, form = train_combos[order_t[k % len(order_t)]]
            train_lines.append(_render(tmpl, ent, ent.facts[rel_name], deco, form,
                                       nonces[(i + k) % len(nonces)]))
        for k in range(config.lookup_per_entity):
            rel_name, tmpl, deco, form = lookup_combos[order_l[k % len(order_l)]]
            lookup_lines.append(_render(tmpl, ent, ent.facts[rel_name], deco, form,
                                        nonces[(i + 3 * k + 1) % len(nonces)]))

    rng.shuffle(train_lines)
    rng.shuffle(lookup_lines)

    queries = []
    for ent in catalog:
        rel = rel_by_name[ent.probe_relation]
        tmpl = rel.templates[ent.probe_template]
        query = _render(tmpl, ent, "[MASK]", "")
        queries.append(ClozeQuery(query, ent.entity_id, ent.facts[rel.name],
                                  rel.name, ent.train_freq))

    train_surfaces = {strip_markup(line) for line in train_lines}
    for q in queries:
        completion = strip_markup(q.query.replace("[MASK]", q.answer))
        if completion in train_surfaces:
            raise ConfigError(f"cloze completion for {q.subject} leaks into the train corpus")

    return CorpusBundle(config, vocab, catalog, train_lines, lookup_lines, queries)
