#!/usr/bin/env python3
"""Wire-protocol coverage lint.

Statically cross-checks that every FrameType enum value is fully wired, so a
future frame type cannot land half-covered. For each enum value the lint
requires four sites:

  1. encode   — a `Writer(FrameType::kX ...)` construction in wire.cpp;
  2. decode   — an `open_frame(frame, FrameType::kX)` call in wire.cpp (or,
                for the header-only frames, a FrameType::kX dispatch outside
                wire.cpp), plus a `case FrameType::kX` in frame_type_name();
  3. round-trip test — the encode function enclosing the Writer site and its
                decode_* counterpart both referenced under tests/;
  4. fuzz loop — a `case ...FrameType::kX` arm in the decode_any() dispatcher
                and a seed-frame entry in tests/fuzz/wire_corpus.hpp, plus a
                checked-in corpus input tests/fuzz/corpora/wire/<name>.bin.

Additionally, every read_*/decode_* helper in wire.cpp that allocates from a
wire-supplied count (resize/reserve) must bounds-check first (array_count()
or require()).

Run as a ctest (`wire_lint`) and in CI. `--self-test` proves the lint can
fail: it re-runs the checks on doctored copies of the sources with one site
removed at a time and asserts each mutation is caught.
"""

import argparse
import pathlib
import re
import sys

# Frames with no payload: encoded as a bare header, validated by frame_type()
# at the receiver dispatch, so no open_frame()/decode_* function exists.
HEADER_ONLY = {"kShutdown", "kMetricsQuery"}

ENUM_RE = re.compile(r"enum class FrameType[^{]*\{(.*?)\};", re.S)
ENUM_VALUE_RE = re.compile(r"\b(k\w+)\s*=\s*\d+")
WRITER_RE = re.compile(r"Writer\s*\w*\(\s*FrameType::(k\w+)")
OPEN_FRAME_RE = re.compile(r"open_frame\(\s*frame\s*,\s*FrameType::(k\w+)")
NAME_CASE_RE = re.compile(r"case FrameType::(k\w+):\s*return")
DISPATCH_CASE_RE = re.compile(r"case\s+(?:\w+::)*FrameType::(k\w+)\s*:")
SEED_ADD_RE = re.compile(r"add\(\s*(?:\w+::)*FrameType::(k\w+)")
# A function definition at column 0: return type spilling over is fine, the
# name must be on the defining line ("encode_let(", "read_metrics(", ...).
FUNC_DEF_RE = re.compile(r"^[\w:<>,&*\s]+?\b((?:encode|decode|read|put)_\w+)\s*\(", re.M)
ALLOC_RE = re.compile(r"\.(?:resize|reserve)\(")
BOUND_RE = re.compile(r"array_count\(|\.require\(|require\(")


def camel_to_snake(name):
    out = []
    for i, c in enumerate(name):
        if c.isupper() and i > 0:
            out.append("_")
        out.append(c.lower())
    return "".join(out)


def load_sources(root):
    root = pathlib.Path(root)
    tests = ""
    for path in sorted(root.glob("tests/*.cpp")) + sorted(root.glob("tests/fuzz/*.cpp")):
        tests += path.read_text()
    return {
        "wire_hpp": (root / "src/domain/wire.hpp").read_text(),
        "wire_cpp": (root / "src/domain/wire.cpp").read_text(),
        "src_other": "".join(
            p.read_text()
            for p in sorted(root.glob("src/**/*.cpp")) + sorted(root.glob("src/**/*.hpp"))
            if p.name not in ("wire.cpp", "wire.hpp")
        ),
        "tests": tests,
        "corpus_hpp": (root / "tests/fuzz/wire_corpus.hpp").read_text(),
        "corpora": {p.name for p in sorted(root.glob("tests/fuzz/corpora/wire/*.bin"))},
    }


def split_functions(cpp):
    """Map function name -> body text (to the next column-0 definition)."""
    defs = list(FUNC_DEF_RE.finditer(cpp))
    out = {}
    for i, m in enumerate(defs):
        end = defs[i + 1].start() if i + 1 < len(defs) else len(cpp)
        out.setdefault(m.group(1), "")
        out[m.group(1)] += cpp[m.start():end]
    return out


def run_lint(sources):
    errors = []
    enum_body = ENUM_RE.search(sources["wire_hpp"])
    if not enum_body:
        return ["wire.hpp: FrameType enum not found"]
    types = ENUM_VALUE_RE.findall(enum_body.group(1))
    if not types:
        return ["wire.hpp: FrameType enum has no parsed values"]

    encode_sites = set(WRITER_RE.findall(sources["wire_cpp"]))
    decode_sites = set(OPEN_FRAME_RE.findall(sources["wire_cpp"]))
    name_cases = set(NAME_CASE_RE.findall(sources["wire_cpp"]))
    dispatch_cases = set(DISPATCH_CASE_RE.findall(sources["corpus_hpp"]))
    seed_adds = set(SEED_ADD_RE.findall(sources["corpus_hpp"]))

    # Attribute each Writer site to its enclosing encode_* function.
    functions = split_functions(sources["wire_cpp"])
    encoders = {}  # type -> set of enclosing function names
    for fname, body in functions.items():
        for t in WRITER_RE.findall(body):
            encoders.setdefault(t, set()).add(fname)

    for t in types:
        if t not in encode_sites:
            errors.append(f"{t}: no encode site (Writer(FrameType::{t}) in wire.cpp)")
        if t not in name_cases:
            errors.append(f"{t}: missing from the frame_type_name() switch")
        if t in HEADER_ONLY:
            if t in decode_sites:
                errors.append(f"{t}: header-only frame unexpectedly has an open_frame site")
            if f"FrameType::{t}" not in sources["src_other"]:
                errors.append(f"{t}: header-only frame is never dispatched outside wire.cpp")
        elif t not in decode_sites:
            errors.append(f"{t}: no decode site (open_frame(frame, FrameType::{t}))")

        # Round-trip: some enclosing encoder and its decode twin in tests/;
        # header-only frames have no decoder, so the encoder plus a
        # FrameType check in tests stands in.
        candidates = encoders.get(t, set())
        covered = False
        for fname in candidates:
            if not fname.startswith("encode_"):
                continue
            twin = fname.replace("encode_", "decode_", 1)
            if fname in sources["tests"] and twin in sources["tests"]:
                covered = True
            if t in HEADER_ONLY and fname in sources["tests"] and \
                    f"FrameType::{t}" in sources["tests"]:
                covered = True
        if not covered:
            errors.append(
                f"{t}: no round-trip test (encoder {sorted(candidates)} with its "
                f"decode twin under tests/)")

        if t not in dispatch_cases:
            errors.append(f"{t}: missing from the decode_any() fuzz dispatcher "
                          f"(tests/fuzz/wire_corpus.hpp)")
        if t not in seed_adds:
            errors.append(f"{t}: missing from the seed_frames() corpus builder")
        corpus_file = camel_to_snake(t[1:]) + ".bin"
        if corpus_file not in sources["corpora"]:
            errors.append(f"{t}: no checked-in corpus input "
                          f"tests/fuzz/corpora/wire/{corpus_file}")

    # Bounds-check rule: helpers that allocate from wire-supplied counts must
    # validate against the remaining payload first.
    for fname, body in functions.items():
        if not fname.startswith(("read_", "decode_")):
            continue
        if ALLOC_RE.search(body) and not BOUND_RE.search(body):
            errors.append(f"{fname}: allocates (resize/reserve) without a bounds "
                          f"check (array_count()/require())")
    return errors


def self_test(root):
    """The lint must fail when any of the four sites (or the bounds check)
    disappears — mutate pristine sources one site at a time and expect a
    complaint naming the mutated frame or helper."""
    pristine = load_sources(root)
    base_errors = run_lint(pristine)
    if base_errors:
        print("self-test needs a clean tree, but the lint already fails:")
        for e in base_errors:
            print("  " + e)
        return 1

    def mutated(**changes):
        s = dict(pristine)
        s.update(changes)
        return s

    mutations = {
        "encode site removed": mutated(
            wire_cpp=pristine["wire_cpp"].replace(
                "Writer w(FrameType::kMigration", "Writer w(FrameType::kParticles")),
        "decode site removed": mutated(
            wire_cpp=pristine["wire_cpp"].replace(
                "open_frame(frame, FrameType::kMigration",
                "open_frame(frame, FrameType::kParticles")),
        "round-trip test removed": mutated(
            tests=pristine["tests"].replace("decode_migration", "dec0de_migration")),
        "fuzz dispatcher arm removed": mutated(
            corpus_hpp=pristine["corpus_hpp"].replace(
                "case wire::FrameType::kMigration:", "case wire::FrameType::kMigration_:")),
        "seed frame removed": mutated(
            corpus_hpp=pristine["corpus_hpp"].replace(
                "add(wire::FrameType::kMigration,", "add_(wire::FrameType::kMigration,")),
        "corpus input removed": mutated(
            corpora=pristine["corpora"] - {"migration.bin"}),
        "enum value added without sites": mutated(
            wire_hpp=pristine["wire_hpp"].replace(
                "kMetricsReport = 20,", "kMetricsReport = 20,\n  kFrobnicate = 22,")),
        "unchecked allocation added": mutated(
            wire_cpp=pristine["wire_cpp"] +
            "\nstd::vector<int> read_evil(Reader& r) {\n"
            "  std::vector<int> v;\n  v.resize(r.u32());\n  return v;\n}\n"),
    }

    failed = 0
    for label, sources in mutations.items():
        errors = run_lint(sources)
        if errors:
            print(f"ok: '{label}' caught ({len(errors)} error(s), "
                  f"first: {errors[0]})")
        else:
            print(f"FAIL: mutation '{label}' was not caught")
            failed += 1
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the lint fails on doctored sources")
    args = ap.parse_args()

    if args.self_test:
        return self_test(args.root)

    errors = run_lint(load_sources(args.root))
    if errors:
        print(f"wire_lint: {len(errors)} error(s)")
        for e in errors:
            print("  " + e)
        return 1
    print("wire_lint: all FrameType values fully wired "
          "(encode, decode, round-trip, fuzz, corpus) and all helpers bounds-checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
