#!/usr/bin/env python3
"""Determinism lint for the simulation tree.

The whole experiment pipeline promises bit-identical output for identical
specs (seeded RNG, spec-order results, no wall-clock in data paths). This
lint bans the constructs that silently break that promise:

  * rand() / srand()            — unseeded global RNG
  * time(...) / clock()         — wall clock in simulation code
  * std::random_device          — nondeterministic seed source
  * std::chrono::system_clock   — wall clock (steady_clock is allowed only
                                  in whitelisted timing/progress code)
  * unseeded std::mt19937       — default-constructed engines draw from an
                                  implementation seed
  * range-for over unordered_{map,set} — iteration order is unspecified;
    feeding it into output, aggregation, or event scheduling makes runs
    diverge across standard libraries. Iterate a sorted copy or an ordered
    container instead. A name counts as unordered if the file or its
    paired header (foo.h for foo.cpp) declares it so, and the loop may
    reach it through member access (`st.name`, `p->name`). A container
    whose elements are unordered containers (`unordered_map<K,
    unordered_set<V>>`, `vector<unordered_map<K, V>>`) also flags a loop
    over one element: `name[i]`, `name.at(i)`, or `it->second` where `it`
    was last bound from `name.find(...)` or `name.begin()`.
  * sans-IO layering            — no file under src/core/ may include
                                  src/rt/, src/protocols/, src/sim/,
                                  src/exp/, any src/bt/ header but
                                  bitfield.h, <sys/socket.h>,
                                  <sys/epoll.h>, <netinet/...>, <unistd.h>
                                  or <chrono>: the protocol engine has no
                                  clock, no socket and no simulator, so
                                  hosts other than the live runtime (tests,
                                  a simulator) can run it. No file under
                                  src/check/ may include src/core/,
                                  src/rt/ or src/protocols/: the oracle
                                  reads traces and shares no code with the
                                  engines it checks.

Escapes:
  * a `// det-ok` comment on the offending line suppresses it (use for
    provably order-insensitive folds, e.g. counting matches);
  * WHITELIST entries suppress a rule for a whole file (timing code that
    is documented as nondeterministic, the RNG implementation itself).

`--self-test` scans the fixtures in scripts/lint_fixtures/ instead: each
line marked `lint-expect: <rule>` must be reported with that rule, and
no other line may be.

Exit status: 0 clean, 1 findings. Run from the repo root (CI does).
"""

import re
import sys
from pathlib import Path

SCAN_DIRS = ["src", "bench", "tools", "examples"]
EXTENSIONS = {".cpp", ".h"}

# (path-suffix, rule-name) pairs exempted with a reason.
WHITELIST = {
    # The runner's wall-clock throughput summary is stderr-only and
    # documented as nondeterministic (RunRecord::wall_seconds).
    ("src/exp/runner.cpp", "steady_clock"),
    # The seeded RNG implementation wraps the engine type itself.
    ("src/util/rng.h", "mt19937"),
    ("src/util/rng.cpp", "mt19937"),
    # Wall-clock throughput measurement is this microbench's entire job;
    # its output is labelled as machine-dependent.
    ("bench/bench_overhead_crypto.cpp", "steady_clock"),
}

# (dir-prefix, rule-name) pairs exempted for a whole subtree.
WHITELIST_DIRS = {
    # The live deployment runtime serves real sockets; its Reactor is the
    # documented sole wall-clock surface of src/rt (reactor.h), and every
    # trace timestamp flows through Reactor::now().
    ("src/rt/", "steady_clock"),
}

RULES = [
    ("rand", re.compile(r"(?<![\w])s?rand\s*\("), "rand()/srand() is unseeded global state"),
    ("time", re.compile(r"(?<![\w.>])time\s*\(\s*(NULL|nullptr|0|&)"), "time() reads the wall clock"),
    ("clock", re.compile(r"(?<![\w.>:])clock\s*\(\s*\)"), "clock() reads the wall clock"),
    ("random_device", re.compile(r"std::random_device"), "std::random_device is nondeterministic"),
    ("system_clock", re.compile(r"std::chrono::system_clock"), "system_clock reads the wall clock"),
    ("steady_clock", re.compile(r"std::chrono::steady_clock|chrono::steady_clock"), "steady_clock timing belongs in whitelisted progress code only"),
    ("mt19937", re.compile(r"\bstd::mt19937(_64)?\b"), "raw std::mt19937 outside util::Rng risks an unseeded engine"),
]

# Includes banned per subtree (rule "sans-io"): the engine stays free of
# sockets, the runtime, clocks and the simulator; the checker stays free of
# what it checks.
SANS_IO_RULES = [
    (
        "src/core/",
        re.compile(
            r'#\s*include\s*[<"](src/(?:rt|protocols|sim|exp)/[^>"]*|'
            r'src/bt/(?!bitfield\.h[>"])[^>"]*|sys/socket\.h|sys/epoll\.h|'
            r'netinet/[^>"]*|unistd\.h|chrono)[>"]'
        ),
        "src/core must stay free of sockets, the runtime, clocks and the "
        "simulator (from src/bt only bitfield.h)",
    ),
    (
        "src/check/",
        re.compile(r'#\s*include\s*[<"](src/(?:core|rt|protocols)/[^>"]*)[>"]'),
        "src/check reads traces and must not include the engines it checks",
    ),
]

# Range-for directly over an unordered container member/variable:
# `for (... : name)`, `for (... : obj.name)` or `for (... : p->name)` where
# `name` was declared unordered in the file or its paired header. The
# inline `for (... : fn())` case is left to review.
UNORDERED_DECL = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s+(\w+)\s*[;{=(]"
)
RANGE_FOR = re.compile(r"for\s*\(.*?:\s*(?:\w+(?:\.|->))*(\w+)\s*\)")
# A std container whose template arguments hold an unordered container.
CONTAINER_DECL = re.compile(
    r"std::(?:unordered_\w+|vector|deque|map|multimap|set|array)\s*"
    r"<([^;]*?)>\s+(\w+)\s*[;{=(]"
)
# `it = [obj.]name.find(` and the like: `it` now points into `name`.
ITER_BIND = re.compile(
    r"(\w+)\s*=\s*(?:\w+(?:\.|->))*(\w+)\s*\.\s*"
    r"(?:find|begin|cbegin|lower_bound|upper_bound)\s*\("
)
ELEMENT_EXPR = re.compile(r"^(?:\w+(?:\.|->))*(\w+)\s*(?:\[.*\]|\.\s*at\s*\(.*\))$")
SECOND_EXPR = re.compile(r"^(\w+)\s*(?:\.|->)\s*second$")

DET_OK = "det-ok"


def strip_comments_keep_lines(text: str) -> list[str]:
    """Remove /* */ and // comment bodies but keep line structure, so the
    scanners don't fire on prose. `det-ok` markers are honoured before
    stripping (the caller checks the raw line)."""
    out = []
    in_block = False
    for raw in text.splitlines():
        line = raw
        if in_block:
            end = line.find("*/")
            if end < 0:
                out.append("")
                continue
            line = " " * (end + 2) + line[end + 2:]
            in_block = False
        # strip // first so "/*" inside a line comment doesn't open a block
        cut = line.find("//")
        if cut >= 0:
            line = line[:cut]
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block = True
                break
            line = line[:start] + " " * (end - start + 2) + line[end + 2:]
        out.append(line)
    return out


def unordered_names(code_lines: list[str]) -> set[str]:
    # An unordered type that is a template argument (`vector<unordered_map<
    # K, V>> rows`) names an element type, not the declared container.
    return {
        m.group(1)
        for line in code_lines
        for m in UNORDERED_DECL.finditer(line)
        if not line[: m.start()].rstrip().endswith(("<", ","))
    }


def nested_names(code_lines: list[str]) -> set[str]:
    """Containers whose elements are unordered containers."""
    return {
        m.group(2)
        for line in code_lines
        for m in CONTAINER_DECL.finditer(line)
        if "unordered_" in m.group(1)
    }


def range_expr(line: str) -> str | None:
    """The range expression of a range-for on this line, or None."""
    m = re.search(r"\bfor\s*\(", line)
    if not m:
        return None
    depth, colon, i = 1, None, m.end()
    while i < len(line) and depth:
        c = line[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif (c == ":" and depth == 1 and colon is None
              and ":" not in (line[i - 1], line[i + 1: i + 2])):
            colon = i
        i += 1
    if colon is None or depth:
        return None
    return line[colon + 1: i - 1].strip()


def scan_file(path: Path) -> list[str]:
    rel = path.as_posix()
    raw_lines = path.read_text(encoding="utf-8").splitlines()
    code_lines = strip_comments_keep_lines("\n".join(raw_lines))

    findings = []

    def exempt(rule: str, lineno: int) -> bool:
        if DET_OK in raw_lines[lineno - 1]:
            return True
        if any(rel.endswith(suffix) and rule == r for suffix, r in WHITELIST):
            return True
        return any(
            f"/{prefix}" in f"/{rel}" and rule == r
            for prefix, r in WHITELIST_DIRS
        )

    for lineno, line in enumerate(code_lines, start=1):
        for rule, pattern, why in RULES:
            if pattern.search(line) and not exempt(rule, lineno):
                findings.append(f"{rel}:{lineno}: [{rule}] {why}")

    for prefix, pattern, why in SANS_IO_RULES:
        if f"/{prefix}" not in f"/{rel}":
            continue
        for lineno, line in enumerate(code_lines, start=1):
            m = pattern.search(line)
            if m and not exempt("sans-io", lineno):
                findings.append(
                    f"{rel}:{lineno}: [sans-io] {why}; <{m.group(1)}> "
                    f"is included"
                )

    # Pass 2: names declared as unordered containers in this file or its
    # paired header, then range-for'd. Order-insensitive loops get a
    # `// det-ok`.
    names = unordered_names(code_lines)
    nested = nested_names(code_lines)
    header = path.with_suffix(".h")
    if path.suffix == ".cpp" and header.is_file():
        header_lines = strip_comments_keep_lines(
            header.read_text(encoding="utf-8"))
        names |= unordered_names(header_lines)
        nested |= nested_names(header_lines)
    into_nested = {}  # iterator name -> it was last bound into `nested`
    for lineno, line in enumerate(code_lines, start=1):
        for b in ITER_BIND.finditer(line):
            into_nested[b.group(1)] = b.group(2) in nested
        name = None
        m = RANGE_FOR.search(line)
        if m and m.group(1) in names:
            name = m.group(1)
        expr = range_expr(line) if nested else None
        if expr is not None:
            elem = ELEMENT_EXPR.match(expr)
            second = SECOND_EXPR.match(expr)
            if (elem and elem.group(1) in nested) or (
                    second and into_nested.get(second.group(1), False)):
                name = expr
        if name is not None and not exempt("unordered-iter", lineno):
            findings.append(
                f"{rel}:{lineno}: [unordered-iter] range-for over unordered "
                f"container '{name}' has unspecified order; sort first "
                f"or mark order-insensitive folds with // det-ok"
            )
    return findings


FINDING = re.compile(r"^(.*):(\d+): \[([\w-]+)\]")
EXPECT = re.compile(r"lint-expect: ([\w-]+)")


def self_test(fixtures: Path) -> int:
    """Checks the rules against fixtures whose expected findings are
    marked `lint-expect: <rule>` on the offending line."""
    failures = []
    paths = sorted(p for p in fixtures.rglob("*") if p.suffix in EXTENSIONS)
    for path in paths:
        expected = {
            (lineno, m.group(1))
            for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1
            )
            for m in [EXPECT.search(line)]
            if m
        }
        got = set()
        for f in scan_file(path):
            m = FINDING.match(f)
            got.add((int(m.group(2)), m.group(3)))
        for lineno, rule in sorted(expected - got):
            failures.append(f"{path.name}:{lineno}: [{rule}] not reported")
        for lineno, rule in sorted(got - expected):
            failures.append(f"{path.name}:{lineno}: [{rule}] reported, not expected")
    if not paths:
        failures.append(f"no fixtures under {fixtures}")
    if failures:
        print(f"determinism lint self-test: {len(failures)} failure(s)")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"determinism lint self-test: {len(paths)} fixture(s) as expected")
    return 0


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    if sys.argv[1:] == ["--self-test"]:
        return self_test(root / "scripts" / "lint_fixtures")
    findings = []
    for d in SCAN_DIRS:
        for path in sorted((root / d).rglob("*")):
            if path.suffix in EXTENSIONS and path.is_file():
                findings.extend(scan_file(path))
    if findings:
        print(f"determinism lint: {len(findings)} finding(s)")
        for f in findings:
            print(f"  {f}")
        return 1
    print("determinism lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
