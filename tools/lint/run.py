#!/usr/bin/env python3
"""Invariant-enforcing lint pass for the IPOP repo.

Three rule families, each protecting a property the compiler cannot see
(and the test suite can only sample):

  zero-copy       The data plane must not deep-copy packet bytes.  Inside
                  the hot-path trees (src/brunet/, src/net/, src/ipop/)
                  this flags Buffer/BufferChain deep copies (.clone(),
                  Buffer::copy_of(), .to_vector(), .coalesce()) and
                  memcpy/std::copy statements that touch packet payloads.
                  The bench gate proves the property at runtime for the
                  paths it samples; this rule proves it at the source
                  level for every path.

  determinism     The simulation must stay bit-for-bit reproducible.
                  Bans wall-clock sources (std::chrono::system_clock,
                  time(), gettimeofday(), clock_gettime(), localtime(),
                  gmtime()), unseeded randomness (rand(), srand(),
                  std::random_device) and ad-hoc entropy (getrandom(),
                  getentropy(), arc4random(), RAND_bytes(),
                  /dev/[u]random) anywhere in src/ — in particular
                  keypair generation (KeyPair/NodeIdentity::generate)
                  must draw from the seeded util::Rng or be injected,
                  since the node address and every signature derive
                  from it.  Also flags
                  range-for iteration over std::unordered_map/
                  unordered_set whose body reaches a wire-encode or
                  DHT-ordering decision: hash-order leaking onto the wire
                  breaks reproducible runs, which the upcoming
                  cross-shard time-window sync depends on.

  timer-lifetime  EventLoop callbacks must not outlive their owners.
                  Flags EventLoop::schedule_after/schedule_at calls whose
                  lambda captures `this` (or captures by reference) while
                  BOTH discarding the returned EventId (no cancellation
                  handle) AND carrying no weak_ptr/alive guard in the
                  capture list.  This is the exact use-after-free class
                  ASan has caught twice in transport teardown.

  shard-affinity  Cross-shard interaction in src/sim/ must go through
                  engine Channels.  Flags (a) a direct schedule through
                  another component's loop() accessor — under sharding
                  that loop may belong to a peer shard, and scheduling
                  onto it from this thread is a data race on the heap —
                  and (b) delivery callbacks (schedule_delivery /
                  StampedEvent spans) that mutate sender-shard link state
                  (tx_free_at, frames_sent, frames_dropped_*): the
                  callback executes on the receiver's shard, so those
                  writes would race the transmit path.

Per-line allowlist pragma (a reason is required):

    some_code();  // lint:allow(zero-copy): explicit COW before patch

A pragma on its own line applies to the next line of code; multiple
rules may be listed comma-separated: ``lint:allow(zero-copy,determinism): why``.
A pragma whose rule fires on no line it covers is itself a finding
(``lint-pragma``): an exception outlives nothing it excuses.

Range-for container types are resolved by a built-in lexer from the
declarations seen across the repo (sound for this codebase's style, and
what the self-test fixtures pin down).  All other checks are
token/statement level.

Usage:
    tools/lint/run.py [--json OUT.json] [--self-test] [paths...]

Exit status: 0 = clean (or self-test passed), 1 = findings (or
self-test failed), 2 = usage/environment error.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import sys
from dataclasses import dataclass, field

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))

RULES = ("zero-copy", "determinism", "timer-lifetime", "shard-affinity")

# Directories whose files are on the packet hot path (zero-copy scope).
HOT_PATH_DIRS = ("src/brunet/", "src/net/", "src/ipop/")

# Wall-clock / nondeterminism sources banned in src/.  Each entry is
# (regex, short description).  Matches run over comment/string-blanked
# code, so prose mentions do not fire.
BANNED_CALLS = [
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock (wall clock)"),
    (re.compile(r"(?<![\w:.])time\s*\("), "time() (wall clock)"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday() (wall clock)"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime() (wall clock)"),
    (re.compile(r"\blocaltime(_r)?\s*\("), "localtime() (wall clock)"),
    (re.compile(r"\bgmtime(_r)?\s*\("), "gmtime() (wall clock)"),
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand() (unseeded randomness)"),
    (re.compile(r"\brandom_device\b"), "std::random_device (unseeded randomness)"),
    (re.compile(r"\bgetrandom\s*\("), "getrandom() (OS entropy)"),
    (re.compile(r"\bgetentropy\s*\("), "getentropy() (OS entropy)"),
    (re.compile(r"\barc4random(?:_buf|_uniform)?\s*\("), "arc4random() (OS entropy)"),
    (re.compile(r"\bRAND_bytes\s*\("), "RAND_bytes() (OS entropy)"),
]

# Key generation must draw from the seeded sim RNG (or take injected key
# material); any other entropy forks otherwise-identical runs at the
# first keypair — and the node address, the DHT layout and every signed
# record downstream of it.  Name-based on purpose: every legitimate call
# site passes a util::Rng whose spelling contains "rng".
KEYGEN_CALL_RE = re.compile(r"\b(?:KeyPair|NodeIdentity)::generate\s*\(")
RNG_ARG_RE = re.compile(r"rng", re.I)
# String literals are blanked, so /dev/random paths are scanned in raw
# text (comment-only mentions are skipped).
DEV_RANDOM_RE = re.compile(r"/dev/u?random")

# A range-for body "reaches the wire" (or a DHT ordering decision) when it
# calls anything matching this.  Deliberately name-based: the codebase's
# wire writers are encode*/serialize*/send*/emit*/wire*, routing decisions
# go through route*/closest*/next_hop*, and DHT placement through
# put/create/replicate*/handoff*.
WIRE_CALL_RE = re.compile(
    r"\b(?:encode\w*|serializ\w*|send\w*|emit\w*|wire\w*|route\w*|"
    r"closest\w*|next_hop\w*|replicat\w*|handoff\w*|broadcast\w*|"
    r"put|create)\s*\("
)

# Deep-copy operations on the packet ownership types.
ZC_PATTERNS = [
    (re.compile(r"\.\s*clone\s*\("), "Buffer::clone() deep copy"),
    (re.compile(r"\bBuffer::copy_of\s*\("), "Buffer::copy_of() deep copy"),
    (re.compile(r"\.\s*coalesce\s*\("), "BufferChain::coalesce() flattens the chain"),
    (re.compile(r"\.\s*to_vector\s*\("), "Buffer::to_vector() deep copy"),
]
ZC_RAW_COPY_RE = re.compile(r"\b(?:memcpy|memmove|std::copy(?:_n|_backward)?)\s*\(")
ZC_PAYLOAD_HINT_RE = re.compile(r"\bpayload\b|\bPayload\b")

SCHEDULE_CALL_RE = re.compile(r"\bschedule_(?:after|at)\s*\(")
GUARD_CAPTURE_RE = re.compile(r"weak_ptr|weak_from_this|weak|alive|guard", re.I)

# shard-affinity: scheduling through another component's loop() accessor.
SHARD_FOREIGN_SCHED_RE = re.compile(
    r"\b\w+\s*(?:\.|->)\s*loop\s*\(\)\s*(?:\.|->)\s*schedule_\w+\s*\(")
# shard-affinity: spans that become receiver-shard delivery callbacks.
SHARD_DELIVERY_SPAN_RE = re.compile(
    r"\bschedule_delivery\s*\(|\bStampedEvent\s*\{")
# Link sender-shard state; mutating it inside a delivery span races the
# transmit path.
SHARD_SENDER_FIELDS_RE = re.compile(
    r"\b(tx_free_at|frames_sent|frames_dropped_queue|frames_dropped_loss)\b")

ALLOW_PRAGMA_RE = re.compile(
    r"lint:allow\(\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)\s*\)\s*:\s*(\S.*)"
)
ALLOW_NO_REASON_RE = re.compile(r"lint:allow\(\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)\s*\)")
FIXTURE_PATH_RE = re.compile(r"lint-fixture-path:\s*(\S+)")
EXPECT_RE = re.compile(r"expect\(([a-z-]+)\)")

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set)\s*<[^;{}]*?>\s*&?\s*([A-Za-z_]\w*)\s*(?:;|=|\{|\))"
)


@dataclass
class Finding:
    path: str  # repo-relative
    line: int  # 1-based
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class SourceFile:
    path: str          # repo-relative ("fixture path" for self-test files)
    raw: str
    blanked: str = ""  # comments and string/char literals replaced by spaces
    allow: dict = field(default_factory=dict)   # line -> set of rules
    allow_origin: dict = field(default_factory=dict)  # (line, rule) -> pragma line
    comments: dict = field(default_factory=dict)  # line -> comment text

    @property
    def blanked_lines(self):
        return self.blanked.split("\n")


def blank_comments_and_strings(text: str):
    """Replace comment bodies and string/char literal contents with spaces,
    preserving offsets and newlines.  Returns (blanked, comments) where
    comments maps 1-based line -> concatenated comment text on that line."""
    out = list(text)
    comments: dict[int, str] = {}
    i, n = 0, len(text)
    line = 1

    def record(ln: int, s: str):
        comments[ln] = comments.get(ln, "") + s

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            record(line, text[i:j])
            for k in range(i, j):
                out[k] = " "
            i = j
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            record(line, text[i:j])
            for k in range(i, j):
                if out[k] != "\n":
                    out[k] = " "
            line += text.count("\n", i, j)
            i = j
            continue
        if c == 'R' and text[i:i + 2] == 'R"':
            m = re.match(r'R"([^()\\ ]{0,16})\(', text[i:])
            if m:
                close = ")" + m.group(1) + '"'
                j = text.find(close, i + m.end())
                j = n if j == -1 else j + len(close)
                for k in range(i + m.end(), j):
                    if out[k] != "\n":
                        out[k] = " "
                line += text.count("\n", i, j)
                i = j
                continue
        if c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    break
                j += 1
            for k in range(i + 1, min(j, n)):
                out[k] = " "
            i = min(j + 1, n)
            continue
        i += 1
    return "".join(out), comments


def parse_allow_pragmas(sf: SourceFile, findings: list):
    """Fill sf.allow from comment pragmas.  A pragma on a code line covers
    that line; a pragma on a comment-only line covers the next line that
    contains code."""
    blanked_lines = sf.blanked_lines
    for ln, comment in sorted(sf.comments.items()):
        m = ALLOW_PRAGMA_RE.search(comment)
        if not m:
            if ALLOW_NO_REASON_RE.search(comment):
                findings.append(Finding(
                    sf.path, ln, "lint-pragma",
                    "lint:allow pragma without a reason — write "
                    "'// lint:allow(<rule>): <why>'"))
            continue
        rules = {r.strip() for r in m.group(1).split(",")}
        unknown = rules - set(RULES)
        if unknown:
            findings.append(Finding(
                sf.path, ln, "lint-pragma",
                f"unknown rule(s) in lint:allow: {', '.join(sorted(unknown))}"))
            rules -= unknown
        target = ln
        if ln - 1 < len(blanked_lines) and not blanked_lines[ln - 1].strip():
            # Comment-only line: cover the next line holding code.
            nxt = ln + 1
            while nxt <= len(blanked_lines) and not blanked_lines[nxt - 1].strip():
                nxt += 1
            target = nxt
        sf.allow.setdefault(target, set()).update(rules)
        for rule in rules:
            sf.allow_origin[(target, rule)] = ln


def load_source(path: str, repo_rel: str) -> SourceFile:
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        raw = f.read()
    sf = SourceFile(path=repo_rel, raw=raw)
    sf.blanked, sf.comments = blank_comments_and_strings(raw)
    return sf


# --- statement / balanced-region helpers ------------------------------------

def line_of_offset(text: str, off: int) -> int:
    return text.count("\n", 0, off) + 1


def statement_prefix(text: str, off: int) -> str:
    """Text from the previous ';', '{' or '}' up to off (same statement)."""
    start = max(text.rfind(";", 0, off), text.rfind("{", 0, off),
                text.rfind("}", 0, off))
    return text[start + 1:off]


def statement_around(text: str, off: int, max_span: int = 600) -> str:
    start = max(text.rfind(";", 0, off), text.rfind("{", 0, off),
                text.rfind("}", 0, off))
    end = text.find(";", off)
    if end == -1 or end - off > max_span:
        end = min(off + max_span, len(text))
    return text[start + 1:end + 1]


def balanced_region(text: str, open_off: int, open_ch: str, close_ch: str):
    """Extent of a balanced region starting at text[open_off] == open_ch.
    Returns (content, end_off) with end_off past the closer, or (None, -1)."""
    depth = 0
    for i in range(open_off, len(text)):
        c = text[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return text[open_off + 1:i], i + 1
    return None, -1


def split_top_level(s: str, sep: str = ","):
    parts, depth, cur = [], 0, []
    for c in s:
        if c in "([{<":
            depth += 1
        elif c in ")]}>":
            depth = max(0, depth - 1)
        if c == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur))
    return parts


# --- rule: zero-copy --------------------------------------------------------

def check_zero_copy(sf: SourceFile, findings: list):
    if not any(sf.path.startswith(d) for d in HOT_PATH_DIRS):
        return
    text = sf.blanked
    for pat, what in ZC_PATTERNS:
        for m in pat.finditer(text):
            findings.append(Finding(
                sf.path, line_of_offset(text, m.start()), "zero-copy",
                f"{what} on the packet hot path"))
    for m in ZC_RAW_COPY_RE.finditer(text):
        stmt = statement_around(text, m.start())
        if ZC_PAYLOAD_HINT_RE.search(stmt):
            findings.append(Finding(
                sf.path, line_of_offset(text, m.start()), "zero-copy",
                "raw byte copy touching a packet payload on the hot path"))


# --- rule: determinism ------------------------------------------------------

def collect_unordered_names(sources) -> set:
    names = set()
    for sf in sources:
        for m in UNORDERED_DECL_RE.finditer(sf.blanked):
            names.add(m.group(1))
    return names


def base_identifier(expr: str) -> str:
    """Base name of a range expression: 'this->foo_' -> 'foo_',
    'obj.bar()' -> '', 'ns::tbl_' -> 'tbl_', 'tbl_' -> 'tbl_'."""
    expr = expr.strip()
    if expr.endswith(")"):  # function-call result: not a plain member read
        return ""
    m = re.search(r"([A-Za-z_]\w*)\s*$", expr)
    return m.group(1) if m else ""


def iter_range_fors(text: str):
    """Yield (offset, range_expr, body_text) for each range-for."""
    for m in re.finditer(r"\bfor\s*\(", text):
        paren_open = m.end() - 1
        head, after = balanced_region(text, paren_open, "(", ")")
        if head is None or ";" in head:
            continue  # classic for loop
        parts = split_top_level(head, ":")
        if len(parts) < 2:
            continue
        range_expr = parts[-1]
        i = after
        while i < len(text) and text[i] in " \t\n":
            i += 1
        if i < len(text) and text[i] == "{":
            body, _ = balanced_region(text, i, "{", "}")
            body = body or ""
        else:
            end = text.find(";", i)
            body = text[i:end if end != -1 else len(text)]
        yield m.start(), range_expr, body


def check_determinism(sf: SourceFile, findings: list, unordered_names: set):
    text = sf.blanked
    for pat, what in BANNED_CALLS:
        for m in pat.finditer(text):
            findings.append(Finding(
                sf.path, line_of_offset(text, m.start()), "determinism",
                f"{what} breaks bit-for-bit reproducible runs; use the "
                "EventLoop clock / seeded util::Rng"))

    for off, range_expr, body in iter_range_fors(text):
        name = base_identifier(range_expr)
        if not name or name not in unordered_names:
            continue
        m = WIRE_CALL_RE.search(body)
        if m:
            findings.append(Finding(
                sf.path, line_of_offset(text, off), "determinism",
                f"range-for over unordered container '{name}' reaches "
                f"wire/ordering call '{m.group(0).rstrip('(').strip()}' "
                "— hash iteration order leaks into the wire/DHT"))


def check_keygen_entropy(sf: SourceFile, findings: list):
    """Determinism-family entropy rule: keypairs come from the seeded sim
    RNG or arrive injected — never from ad-hoc entropy."""
    text = sf.blanked
    for m in KEYGEN_CALL_RE.finditer(text):
        args, _ = balanced_region(text, m.end() - 1, "(", ")")
        if args is None or RNG_ARG_RE.search(args):
            continue
        findings.append(Finding(
            sf.path, line_of_offset(text, m.start()), "determinism",
            "key generation from ad-hoc entropy — keypairs must draw from "
            "the seeded util::Rng (or be injected), or the node address, "
            "DHT layout and every signature diverge across replays"))
    for i, line in enumerate(sf.raw.split("\n"), start=1):
        if DEV_RANDOM_RE.search(line) and \
                not DEV_RANDOM_RE.search(sf.comments.get(i, "")):
            findings.append(Finding(
                sf.path, i, "determinism",
                "/dev/[u]random OS entropy breaks bit-for-bit reproducible "
                "runs; use the seeded util::Rng"))


# --- rule: timer-lifetime ---------------------------------------------------

def find_lambda_capture(args_text: str):
    """Capture list of the first lambda among call arguments, or None.
    A '[' introduces a lambda when preceded (modulo whitespace) by '(' ','
    or the start of the argument list."""
    for i, c in enumerate(args_text):
        if c != "[":
            continue
        j = i - 1
        while j >= 0 and args_text[j] in " \t\n":
            j -= 1
        if j < 0 or args_text[j] in "(,":
            captures, _ = balanced_region(args_text, i, "[", "]")
            return captures
    return None


def capture_analysis(captures: str):
    """Classify a lambda capture list.  Returns (risky, guarded)."""
    risky = False
    guarded = False
    for item in split_top_level(captures):
        item = item.strip()
        if not item:
            continue
        if item in ("this", "*this") or item in ("=", "&"):
            risky = True
        elif item.startswith("&"):
            risky = True
        if GUARD_CAPTURE_RE.search(item):
            guarded = True
    return risky, guarded


def check_timer_lifetime(sf: SourceFile, findings: list):
    text = sf.blanked
    for m in SCHEDULE_CALL_RE.finditer(text):
        prefix = statement_prefix(text, m.start())
        if "=" in prefix or re.search(r"\breturn\b", prefix):
            continue  # cancellation handle retained (or forwarded)
        paren = text.find("(", m.end() - 1)
        args, _ = balanced_region(text, paren, "(", ")")
        if args is None:
            continue
        captures = find_lambda_capture(args)
        if captures is None:
            continue  # non-lambda callback: ownership not visible here
        risky, guarded = capture_analysis(captures)
        if risky and not guarded:
            findings.append(Finding(
                sf.path, line_of_offset(text, m.start()), "timer-lifetime",
                "EventLoop timer lambda captures `this`/by-reference with "
                "the EventId discarded and no weak_ptr/alive guard — the "
                "callback can outlive its owner (UAF class seen twice)"))


# --- rule: shard-affinity ---------------------------------------------------

def sender_mutation_near(span: str, m) -> bool:
    """True when the matched sender-field mention in `span` is a mutation:
    pre/post increment/decrement or a compound/plain assignment target."""
    before = span[:m.start()]
    after = span[m.end():]
    if re.search(r"(\+\+|--)\s*[\w.\->\[\]]*$", before):
        return True
    return bool(re.match(r"\s*(\+\+|--|(?:[+\-*/%|&^]|<<|>>)?=(?!=))", after))


def check_shard_affinity(sf: SourceFile, findings: list):
    if not sf.path.startswith("src/sim/"):
        return
    text = sf.blanked
    for m in SHARD_FOREIGN_SCHED_RE.finditer(text):
        findings.append(Finding(
            sf.path, line_of_offset(text, m.start()), "shard-affinity",
            "direct schedule through another component's loop() — under "
            "sharding that loop may belong to a peer shard; route "
            "cross-shard work through an engine Channel"))
    for m in SHARD_DELIVERY_SPAN_RE.finditer(text):
        opener = text[m.end() - 1]
        closer = ")" if opener == "(" else "}"
        span, _ = balanced_region(text, m.end() - 1, opener, closer)
        if span is None:
            continue
        for fm in SHARD_SENDER_FIELDS_RE.finditer(span):
            if not sender_mutation_near(span, fm):
                continue
            findings.append(Finding(
                sf.path, line_of_offset(text, m.end() + fm.start()),
                "shard-affinity",
                f"delivery callback mutates sender-shard link state "
                f"'{fm.group(1)}' — it executes on the receiver's shard "
                "and races the transmit path; keep sender counters on the "
                "send side of the channel"))


# --- driver -----------------------------------------------------------------

def discover_files(paths):
    """Repo-relative source files to lint: the given paths, or every
    .cpp/.hpp under src/."""
    if paths:
        return sorted({os.path.relpath(os.path.abspath(p), REPO_ROOT)
                       for p in paths})
    files = set()
    for pat in ("src/**/*.cpp", "src/**/*.hpp"):
        for p in glob.glob(os.path.join(REPO_ROOT, pat), recursive=True):
            files.add(os.path.relpath(p, REPO_ROOT))
    return sorted(files)


def lint_sources(sources):
    findings: list[Finding] = []
    for sf in sources:
        parse_allow_pragmas(sf, findings)
    unordered_names = collect_unordered_names(sources)

    for sf in sources:
        check_zero_copy(sf, findings)
        check_determinism(sf, findings, unordered_names)
        check_keygen_entropy(sf, findings)
        check_timer_lifetime(sf, findings)
        check_shard_affinity(sf, findings)

    by_path = {sf.path: sf for sf in sources}
    kept = []
    used = set()  # (path, line, rule) allowances that suppressed a finding
    for f in findings:
        sf = by_path.get(f.path)
        allowed = sf is not None and f.rule in sf.allow.get(f.line, set())
        if f.rule == "lint-pragma" or not allowed:
            kept.append(f)
        else:
            used.add((f.path, f.line, f.rule))
    # A pragma that suppresses nothing is a standing exception to an
    # invariant with nothing behind it (typically the code it excused was
    # deleted): report it so it goes too.
    for sf in sources:
        for (line, rule), origin in sorted(sf.allow_origin.items()):
            if (sf.path, line, rule) not in used:
                kept.append(Finding(
                    sf.path, origin, "lint-pragma",
                    f"lint:allow({rule}) suppresses nothing — no [{rule}] "
                    "finding on the line it covers; delete the pragma"))
    kept.sort(key=lambda f: (f.path, f.line, f.rule))
    return kept


# --- self-test --------------------------------------------------------------

def run_self_test():
    fixture_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "fixtures")
    fixture_paths = sorted(glob.glob(os.path.join(fixture_dir, "*.cpp")))
    if not fixture_paths:
        print("lint --self-test: no fixtures found", file=sys.stderr)
        return 2

    sources = []
    expected = {}  # (fixture_path, line) -> rule
    for p in fixture_paths:
        with open(p) as f:
            raw = f.read()
        m = FIXTURE_PATH_RE.search(raw)
        if not m:
            print(f"lint --self-test: {p} lacks a lint-fixture-path header",
                  file=sys.stderr)
            return 2
        pretend = m.group(1)
        sf = SourceFile(path=pretend, raw=raw)
        sf.blanked, sf.comments = blank_comments_and_strings(raw)
        sources.append(sf)
        for i, line in enumerate(raw.split("\n"), start=1):
            for em in EXPECT_RE.finditer(line):
                expected[(pretend, i, em.group(1))] = False

    findings = lint_sources(sources)

    failures = []
    for f in findings:
        key = (f.path, f.line, f.rule)
        if key in expected:
            expected[key] = True
        else:
            failures.append(f"unexpected finding: {f.format()}")
    for (path, line, rule), hit in sorted(expected.items()):
        if not hit:
            failures.append(f"rule did not fire: {path}:{line} expected "
                            f"[{rule}]")

    fired_rules = {rule for (_, _, rule), hit in expected.items() if hit}
    for rule in RULES:
        if rule not in fired_rules:
            failures.append(f"self-test has no passing expectation for "
                            f"rule family [{rule}]")

    if failures:
        print("lint --self-test FAILED:", file=sys.stderr)
        for msg in failures:
            print("  " + msg, file=sys.stderr)
        return 1
    print(f"lint --self-test OK: {len(expected)} expectations across "
          f"{len(fixture_paths)} fixtures, all {len(RULES)} rule families "
          f"fire and the allow pragma suppresses.")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--json", dest="json_out",
                    help="also write findings as JSON to this path")
    ap.add_argument("--self-test", action="store_true",
                    help="assert each rule fires on the committed fixtures")
    ap.add_argument("paths", nargs="*",
                    help="specific files to lint (default: every .cpp/.hpp "
                         "under src/)")
    opts = ap.parse_args(argv)

    if opts.self_test:
        return run_self_test()

    files = discover_files(opts.paths)
    if not files:
        print("lint: no source files found", file=sys.stderr)
        return 2
    sources = []
    for rel in files:
        ap_path = os.path.join(REPO_ROOT, rel)
        if not os.path.exists(ap_path):
            continue
        sources.append(load_source(ap_path, rel))

    findings = lint_sources(sources)

    if opts.json_out:
        with open(opts.json_out, "w") as f:
            json.dump([f_.__dict__ for f_ in findings], f, indent=2)

    for f in findings:
        print(f.format())
    n_allowed = sum(len(v) for sf in sources for v in sf.allow.values())
    print(f"lint: {len(findings)} finding(s) across {len(sources)} files "
          f"({n_allowed} allowlisted)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
