"""Seeded inputs: message pairs for ``score`` and a git fixture for ``cold-start``.

Message pairs
    Every run scores the same plan of pair shapes: message lengths, pair
    kinds, edit positions and which vocabulary rank fills each word slot
    come from a fixed plan seed.  The run's seed draws a permutation of each
    vocabulary class, so the words change from seed to seed while the
    pattern of repeated tokens does not.  METEOR's exact alignment search
    costs are set by that pattern and are heavy-tailed (a few pairs out of
    thousands take most of the time), so a plan drawn afresh per seed would
    swing the workload's speed by several times between seeds.  Every word
    of a class tokenizes to the same number of tokens and no two words
    share an alphanumeric token, so the permutation keeps the token
    pattern exactly.

Git fixture
    One ``git fast-import`` stream: a root commit, then seeded edits to
    source files in six languages, with a fixed number of commits of each
    special kind placed at seeded positions -- renames, a binary file, a
    message with non-UTF-8 bytes, deletions, and commits each filter rule
    R1-R5 rejects.
"""

from __future__ import annotations

import random

# -- message pairs ---------------------------------------------------------

PLAN_SEED = 20250917
PAIR_COUNT = 1000

# Each class: words with the same token count and no shared alphanumeric
# token across all classes.  Frequency rank follows list order after the
# seeded permutation.
VOCAB = {
    "func": "the a to of in for and on with when is from by at as not if or into after".split(),
    "verb": (
        "fix add remove update refactor handle support allow use avoid make move "
        "rename improve clean bump drop ensure skip guard wrap check reset tune"
    ).split(),
    "noun": (
        "parser client index retry timeout socket buffer column widget schema token "
        "stream metric logging backoff queue worker branch release flag config error "
        "test build docs path file option value request response session handler "
        "cursor thread lock header payload encoder decoder"
    ).split(),
    "camel": (
        "jsonNode userId readBytes hashCode newFrame runTask maxRetries xmlDoc getItem "
        "putEntry hasNext didMount byteSink webHook keyPair lowPass"
    ).split(),
    "call": (
        "os.walk() sys.exit() re.sub() np.zeros() fh.seek() io.open() db.commit() "
        "ws.send() rx.poll() gc.collect() tz.localize() ui.draw()"
    ).split(),
    "snake": (
        "min_len dry_mode api_secret ret_status row_num tmp_dir log_level http_port "
        "ua_string base_url page_size cache_ttl"
    ).split(),
}
CLASS_WEIGHTS = {"func": 36, "verb": 14, "noun": 30, "camel": 8, "call": 6, "snake": 6}
KIND_WEIGHTS = {"unrelated": 30, "edit": 30, "mix": 20, "reorder": 20}


def _slot(rng: random.Random) -> tuple[str, int]:
    """A word slot: a vocabulary class and a Zipf-distributed rank within it."""
    cls = rng.choices(list(CLASS_WEIGHTS), weights=list(CLASS_WEIGHTS.values()))[0]
    size = len(VOCAB[cls])
    rank = rng.choices(range(size), weights=[1.0 / (r + 1) ** 1.1 for r in range(size)])[0]
    return cls, rank


def _plan_message(rng: random.Random) -> list[tuple[str, int]]:
    # First lines of commit messages: 5..50 words as rule R1 allows, most short.
    length = min(50, max(5, round(rng.lognormvariate(2.3, 0.5))))
    return [_slot(rng) for _ in range(length)]


def pair_plan(count: int = PAIR_COUNT) -> list[tuple[str, list, list]]:
    """(kind, hypothesis slots, reference slots) for each pair, seed-independent."""
    rng = random.Random(PLAN_SEED)
    refs = [_plan_message(rng) for _ in range(count)]
    kinds = list(KIND_WEIGHTS)
    plan = []
    for ref in refs:
        kind = rng.choices(kinds, weights=list(KIND_WEIGHTS.values()))[0]
        other = refs[rng.randrange(count)]
        if kind == "unrelated":
            hyp = list(other)
        elif kind == "edit":
            hyp = list(ref)
            for _ in range(rng.randrange(1, 4)):
                op = rng.randrange(3)
                if op == 0 and len(hyp) > 1:
                    del hyp[rng.randrange(len(hyp))]
                elif op == 1:
                    hyp.insert(rng.randrange(len(hyp) + 1), _slot(rng))
                else:
                    hyp[rng.randrange(len(hyp))] = _slot(rng)
        elif kind == "mix":
            cut = rng.randrange(1, len(ref))
            hyp = ref[:cut] + other[len(other) // 2 :]
        else:  # reorder: rotate three blocks of the reference
            i, j = sorted(rng.sample(range(len(ref) + 1), 2))
            hyp = ref[j:] + ref[i:j] + ref[:i]
        plan.append((kind, hyp, ref))
    return plan


def message_pairs(seed: int, plan=None) -> list[tuple[str, str, str]]:
    """(kind, hypothesis text, reference text) for the plan, words drawn from ``seed``."""
    rng = random.Random(seed)
    words = {}
    for cls, pool in VOCAB.items():
        shuffled = list(pool)
        rng.shuffle(shuffled)
        words[cls] = shuffled

    def render(slots):
        return " ".join(words[cls][rank] for cls, rank in slots)

    return [(kind, render(hyp), render(ref)) for kind, hyp, ref in plan or pair_plan()]


# -- git fixture -------------------------------------------------------------

FIXTURE_COMMITS = 600
FIXTURE_EPOCH = 1_600_000_000
AUTHORS = ("Ada Lovelace", "Grace Hopper", "Linus Pauling", "Barbara Liskov")
BOT_AUTHOR = "dependabot[bot]"
LANG_EXTS = (".py", ".java", ".go", ".ts", ".rs", ".cpp")
_IDENTS = (
    "value count total buffer offset index result config handler request payload "
    "cursor retries timeout session worker"
).split()
_CALLS = "compute parse encode decode flush reset update validate render fetch".split()
_MSG_VERBS = "fix add remove update refactor handle support avoid improve rename".split()
_MSG_WORDS = (
    "the parser client cache retry timeout socket buffer schema stream metric "
    "logging backoff queue worker release flag config error handling path for "
    "in of when on with to and empty large missing invalid"
).split()

# Commits of each special kind per fixture; positions are drawn from the seed.
SPECIAL_KINDS = {
    "rename": 3,
    "binary": 2,
    "non_utf8": 2,
    "delete": 2,
    "r1_short": 4,
    "r1_long": 2,
    "r2_large": 4,
    "r3_docs": 6,
    "r4_bot": 4,
    "r5_revert": 5,
}


def code_line(rng: random.Random) -> str:
    a, b = rng.sample(_IDENTS, 2)
    return f"    {a} = {rng.choice(_CALLS)}({b}, {rng.randrange(100)})"


def _message(rng: random.Random) -> str:
    words = [rng.choice(_MSG_VERBS)] + [
        rng.choice(_MSG_WORDS) for _ in range(rng.randrange(4, 14))
    ]
    text = " ".join(words)
    if rng.random() < 0.2:
        text += f" (#{rng.randrange(1, 5000)})"
    if rng.random() < 0.3:
        text += "\n\n" + " ".join(rng.choice(_MSG_WORDS) for _ in range(20))
    return text


def _data(payload: bytes) -> bytes:
    return b"data %d\n" % len(payload) + payload + b"\n"


def fixture_stream(seed: int, commits: int = FIXTURE_COMMITS) -> bytes:
    """A ``git fast-import`` stream for branch ``main`` with ``commits`` commits."""
    rng = random.Random(seed)
    files: dict[str, list[str]] = {}
    for i, ext in enumerate(LANG_EXTS):
        for j in range(2):
            files[f"src/mod{i}_{j}{ext}"] = [code_line(rng) for _ in range(rng.randrange(40, 120))]
    files["README.md"] = ["# fixture", "", "Seeded repository for the cold-start workload."]

    specials: dict[int, str] = {}
    slots = rng.sample(range(1, commits), sum(SPECIAL_KINDS.values()))
    for kind, n in SPECIAL_KINDS.items():
        for _ in range(n):
            specials[slots.pop()] = kind

    out = bytearray()
    for n in range(commits):
        kind = specials.get(n, "root" if n == 0 else "edit")
        author = BOT_AUTHOR if kind == "r4_bot" else rng.choice(AUTHORS)
        message = _message(rng).encode("utf-8")
        ops: list[bytes] = []
        sources = sorted(p for p in files if p.startswith("src/"))

        def modify(path: str) -> None:
            ops.append(b"M 100644 inline " + path.encode() + b"\n")
            ops.append(_data(("\n".join(files[path]) + "\n").encode()))

        def edit(path: str) -> None:
            lines = files[path]
            for _ in range(rng.randrange(1, 4)):
                at = rng.randrange(len(lines))
                action = rng.randrange(3)
                if action == 0 and len(lines) > 10:
                    del lines[at : at + rng.randrange(1, 6)]
                elif action == 1:
                    lines[at:at] = [code_line(rng) for _ in range(rng.randrange(1, 15))]
                else:
                    lines[at : at + 1] = [code_line(rng)]
            modify(path)

        if kind == "root":
            for path in sorted(files):
                modify(path)
        elif kind == "rename":
            old = rng.choice(sources)
            new = old.replace("src/", "src/moved_", 1)
            files[new] = files.pop(old)
            ops.append(b"R " + old.encode() + b" " + new.encode() + b"\n")
            edit(new)
        elif kind == "binary":
            blob = bytes([0, 1, 2]) + bytes(rng.randrange(256) for _ in range(200))
            ops.append(b"M 100644 inline assets/logo.png\n" + _data(blob))
            edit(rng.choice(sources))
        elif kind == "non_utf8":
            message = b"fix caf\xe9 d\xe9cor handling in the parser for latin input"
            edit(rng.choice(sources))
        elif kind == "delete":
            victim = rng.choice(sources)
            del files[victim]
            ops.append(b"D " + victim.encode() + b"\n")
        elif kind == "r1_short":
            message = b"fix typo"
            edit(rng.choice(sources))
        elif kind == "r1_long":
            message = " ".join(rng.choice(_MSG_WORDS) for _ in range(60)).encode()
            edit(rng.choice(sources))
        elif kind == "r2_large":
            path = rng.choice(sources)
            files[path].extend(code_line(rng) for _ in range(320))
            modify(path)
        elif kind == "r3_docs":
            files["README.md"].append(" ".join(rng.choice(_MSG_WORDS) for _ in range(12)))
            modify("README.md")
        elif kind == "r5_revert":
            message = b"Revert the retry change in the client module"
            edit(rng.choice(sources))
        else:  # plain edits, including the bot author's (R4)
            for path in rng.sample(sources, rng.choice((1, 1, 1, 2, 3))):
                edit(path)

        stamp = b"%d +0000" % (FIXTURE_EPOCH + 3600 * n)
        ident = author.encode() + b" <dev@example.org> " + stamp
        out += b"commit refs/heads/main\nmark :%d\n" % (n + 1)
        out += b"author " + ident + b"\ncommitter " + ident + b"\n"
        out += _data(message)
        if n:
            out += b"from :%d\n" % n
        out += b"".join(ops)
        out += b"\n"
    return bytes(out)
