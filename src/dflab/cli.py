"""Command-line surface: search, classification, generation, verification.

Every subcommand writes structured records to stdout (jsonl by default,
csv or human on request) and diagnostics to stderr.  Exit codes: 0 ok,
1 verification failure (a counterexample was found), 2 usage error,
3 resource limit.  Records are buffered and emitted after all work is
done, in a deterministic order.

The leaf commands are rows of COMMANDS: the words that name each, its
flags, and its call, a function then the names of its arguments, each a
flag of that leaf or table.  _call runs every row and makes each result,
a namedtuple, one record through _record; the result's type sets the
record's kind (_KINDS).  Every leaf also takes the _SHARED flags
--sieve-limit, --cache-dir, --format and --threads; --node-budget is a
flag of the three that search.  A generate leaf's n is at most
--sieve-limit, so an n past it exits before any table is read.  A flag a
leaf does not take is its own parser's usage error, and a value outside
the library's domain is the library's; no function a row runs checks
either.  A well-formed argv (a leaf's words, then "--flag value" pairs)
is read straight from these declarations by a narrow parser, _read, and
loads no argparse; help, any other spelling and every usage error go to
the full argparse parser, which reports them.  A command that never asks
for the table loads no cache and builds none: bound thm12ii, bound ineq3,
verify known-factorials and verify val2 evaluate closed forms, and verify
thm24 builds the runs of smooth integers it scans.  main() freezes the
garbage collector before the process exits, so interpreter shutdown does
not sweep what the command left.

A table is one read-only memoryview of native uint32 entries: over the
checked cache bytes, with no copy on a little-endian host, or over a
table sieved in memory.  Every command that reads it does so entry by
entry or streams its primes, and the sieve is built in pure Python.

The sieve is cached on disk in one file, sieve.dfl: a 32-byte header
(magic "DFL1", uint32 version 1, uint64 limit, uint32 CRC-32 of the
payload, 12 zero bytes) followed by the smallest-prime-factor array as
little-endian uint32 entries for indices 0..limit (entries 0 and 1 are
zero).  All integers are little-endian.

A command gets the table of --sieve-limit N on demand (_TableOnDemand).
The library names the largest index each function reads, after checking
that function's arguments, by asking upto(hi); the first such call builds
the table to exactly that need, capped at N and at least 2, and a later
call that reads further builds it again.  A need past N leaves the table
at N, so a command raises or exits exactly where a table of N would, and
one whose arguments are refused exits before any table is built.  A need
up to _IN_MEMORY_MAX is sieved in memory: no cache is read or written.  A
larger need is read from the cache: entries 0..need into the table, then
the rest of the file in small pieces, so that every byte is checked
against the header CRC while memory stays at the need.  A damaged header,
payload length or checksum rebuilds the cache with a warning; a cache
smaller than the need is rebuilt at N, so that it keeps the size later
commands read.  The file is written through a unique temp file and
renamed into place, so processes sharing a cache directory never see a
partial file.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import importlib
import json
import math
import os
import struct
import sys
import types
import zlib
from pathlib import Path

__all__ = [
    "CommandConfig",
    "OutputRecord",
    "COMMANDS",
    "load_or_build_sieve",
    "run",
    "main",
    "CACHE_ENV_VAR",
]

SCHEMA_VERSION = 1
CACHE_ENV_VAR = "DFLAB_CACHE_DIR"
CACHE_FILENAME = "sieve.dfl"
CACHE_MAGIC = b"DFL1"
CACHE_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQI12s")
# bytes per read of the cache past the need, which is only CRC-checked
_PIECE_BYTES = 1 << 20
# A command whose table need is at most this builds the table in memory,
# reading and writing no cache: below it the build is faster than a warm
# cache load (BENCH_20.json)
_IN_MEMORY_MAX = 1 << 17

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class CommandConfig:
    """The settings of the sieve table: its limit and cache, and --threads.

    A plain class: no module of the package imports dataclasses, which
    loads inspect, ast and dis and takes about 10 ms of a process's start.
    OutputRecord and the library's result types are namedtuples.
    """

    def __init__(
        self,
        sieve_limit: int = 10**6,
        cache_dir: Path | None = None,
        threads: int = 0,  # accepted for compatibility; the search runs in one process
    ):
        if cache_dir is None:
            env = os.environ.get(CACHE_ENV_VAR)
            cache_dir = Path(env) if env else Path.home() / ".cache" / "dflab"
        self.sieve_limit = sieve_limit
        self.cache_dir = Path(cache_dir)
        self.threads = threads
        if sieve_limit < 2:
            raise ValueError("sieve limit must be >= 2")
        if threads < 0:
            raise ValueError("threads must be >= 0")

    def effective_threads(self) -> int:
        return self.threads if self.threads > 0 else max(1, os.cpu_count() or 1)


# One record of a command's output; kind is solution, bound_check, triple or scan_summary
OutputRecord = collections.namedtuple("OutputRecord", "kind payload")


class _CacheInvalid(Exception):
    pass


def _cache_path(config: CommandConfig) -> Path:
    return config.cache_dir / CACHE_FILENAME


def _swap_le(buf) -> memoryview:
    """The bytes of buf's uint32 entries, swapped between host and little-endian order.

    On a little-endian host this is a zero-copy byte view of buf; on a
    big-endian host a byte-swapped copy.  Swapping twice is the identity, so
    it turns cache bytes into table entries and table entries into cache bytes.
    """
    view = memoryview(buf).cast("B")
    if sys.byteorder == "little":
        return view
    import array
    swapped = array.array("I")
    swapped.frombytes(view)
    swapped.byteswap()
    return memoryview(swapped).cast("B")


def _read_cache(path: Path, need: int) -> PrimeTable | None:
    """PrimeTable(need, ...) from the cache, every byte CRC-checked; None if the cache is too small.

    Entries 0..need are read into the table's own buffer; the rest of the
    file streams through the CRC a piece at a time and is not kept.
    """
    from .core import PrimeTable
    with open(path, "rb") as f:
        header = f.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise _CacheInvalid("truncated header")
        magic, version, limit, crc, reserved = _HEADER.unpack(header)
        if magic != CACHE_MAGIC:
            raise _CacheInvalid("bad magic")
        if version != CACHE_FORMAT_VERSION:
            raise _CacheInvalid(f"unsupported cache version {version}")
        if reserved != bytes(len(reserved)):
            raise _CacheInvalid("nonzero reserved header bytes")
        if os.fstat(f.fileno()).st_size != _HEADER.size + 4 * (limit + 1):
            raise _CacheInvalid("payload length does not match limit")
        if limit < need:
            return None
        payload = bytearray(4 * (need + 1))
        if f.readinto(payload) != len(payload):
            raise _CacheInvalid("truncated payload")
        running = zlib.crc32(payload)
        piece = memoryview(bytearray(min(_PIECE_BYTES, 4 * (limit - need))))
        while size := f.readinto(piece):
            running = zlib.crc32(piece[:size], running)
    if running != crc:
        raise _CacheInvalid("checksum mismatch")
    return PrimeTable(need, _swap_le(payload).cast("I"))


def _write_atomic(path: Path, *parts):
    """Write parts to a unique temp file in path's directory, then rename it to path."""
    import tempfile
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            os.fchmod(f.fileno(), 0o644)  # mkstemp creates 0600; keep the cache readable
            for part in parts:
                f.write(part)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write_cache(path: Path, table: PrimeTable):
    payload = _swap_le(table.spf)
    crc = zlib.crc32(payload)
    header = _HEADER.pack(CACHE_MAGIC, CACHE_FORMAT_VERSION, table.limit, crc, bytes(12))
    _write_atomic(path, header, payload)


def load_or_build_sieve(config: CommandConfig, need: int | None = None) -> PrimeTable:
    """The sieve to exactly need (default config.sieve_limit), need <= config.sieve_limit.

    It is read from the cache, whole file checked, when the cache reaches need.
    Otherwise the sieve is built to config.sieve_limit and persisted, so
    the cache keeps the size later commands read.
    """
    from .core import PrimeTable, check_sieve_memory, sieve_primes
    check_sieve_memory(config.sieve_limit)
    need = config.sieve_limit if need is None else need
    path = _cache_path(config)
    if path.exists():
        try:
            table = _read_cache(path, need)
            if table is not None:
                return table
        except (_CacheInvalid, OSError) as exc:
            print(f"dflab: rebuilding sieve cache ({exc})", file=sys.stderr)
    table = sieve_primes(config.sieve_limit)
    try:
        config.cache_dir.mkdir(parents=True, exist_ok=True)
        _write_cache(path, table)
    except OSError as exc:
        print(f"dflab: cannot persist sieve cache: {exc}", file=sys.stderr)
    return PrimeTable(need, table.spf[: need + 1])


class _TableOnDemand:
    """The table of --sieve-limit, built or loaded by its first upto and again only for a further read.

    upto(hi) hands off to a PrimeTable of exactly max(2, min(hi, limit)),
    sieved in memory up to _IN_MEMORY_MAX and loaded from the cache above it,
    so a read past the limit raises where a table of the limit would.
    """

    def __init__(self, config: CommandConfig):
        self.config = config
        self.limit = config.sieve_limit
        self.table = None

    def upto(self, hi: int, what: str | None = None):
        if self.table is None or self.table.limit < min(hi, self.limit):
            need = max(2, min(hi, self.limit))
            if need > _IN_MEMORY_MAX:
                self.table = load_or_build_sieve(self.config, need)
            else:
                from .core import check_sieve_memory, sieve_primes
                check_sieve_memory(self.limit)
                self.table = sieve_primes(need)
        return self.table.upto(hi, what)


def _jsonable(obj):
    """A payload as JSON values: payloads hold only plain Python values and
    namedtuples, a namedtuple becomes the dict of its fields, and a
    non-finite float becomes its repr ("inf")."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if hasattr(obj, "_asdict"):
            return _jsonable(obj._asdict())
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


# Each result type's record, by type name: its kind, the field whose fields move to the top
# level, and the properties of that field (else of the result) added.  Others: scan_summary
_KINDS = {
    "SolutionRecord": ("solution", "instance", ("t", "r")),
    "BoundCheckResult": ("bound_check", None, ("passed",)),
    "AbcTriple": ("triple", None, ()),
    "ProofTripleResult": ("triple", "triple", ()),
}


def _record(result) -> OutputRecord:
    """The record of a library result, a namedtuple: its fields, lifted and added to as _KINDS says."""
    kind, lift, derived = _KINDS.get(type(result).__name__, ("scan_summary", None, ()))
    payload = result._asdict()
    source = payload.pop(lift) if lift else result
    if lift:
        payload.update(source._asdict())
    payload.update((name, getattr(source, name)) for name in derived)
    return OutputRecord(kind, payload)


def _emit_jsonl(records, out):
    for rec in records:
        obj = {
            "kind": rec.kind,
            "schema_version": SCHEMA_VERSION,
            "payload": _jsonable(rec.payload),
        }
        out.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _emit_csv(records, out):
    import csv
    keys = sorted({k for rec in records for k in rec.payload})
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["kind", "schema_version"] + [f"payload.{k}" for k in keys])
    for rec in records:
        row = [rec.kind, SCHEMA_VERSION]
        payload = _jsonable(rec.payload)
        for v in (payload.get(k, "") for k in keys):
            nested = isinstance(v, (dict, list))
            row.append(json.dumps(v, sort_keys=True, separators=(",", ":")) if nested else v)
        writer.writerow(row)


def _emit_human(records, out):
    for rec in records:
        p = _jsonable(rec.payload)
        if rec.kind == "solution":
            dec = p.get("decomposition")
            dec_s = f" decomposition={dec}" if dec else ""
            out.write(
                f"solution n={p['n']} a={p['a']} t={p['t']} r={p['r']} "
                f"{p['classification']} ({p['witness']}){dec_s}\n"
            )
        elif rec.kind == "bound_check":
            status = "pass" if p["passed"] else "FAIL"
            out.write(
                f"bound_check {p['name']} [{p['domain_checked']}] {status} "
                f"margin={p['margin']} counterexamples={len(p['counterexamples'])}\n"
            )
        elif rec.kind == "triple":
            out.write(
                f"triple {p['a']} + {p['b']} = {p['c']} rad={p['rad']} "
                f"quality={p['quality']:.4f} explicit_ok={p['explicit_ok']}\n"
            )
        else:
            body = " ".join(f"{k}={v}" for k, v in sorted(p.items()))
            out.write(f"scan_summary {body}\n")


_EMIT = {"jsonl": _emit_jsonl, "csv": _emit_csv, "human": _emit_human}


def _type_error(message: str) -> Exception:
    """argparse's error for a value a flag's type refuses; only errors and help load argparse."""
    import argparse
    return argparse.ArgumentTypeError(message)


def _parse_int_list(text: str) -> list:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise _type_error(f"expected comma-separated integers, got {text!r}")


def _parse_int_at_least(least: int):
    """The type of an integer flag that is a usage error below least."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise _type_error(f"expected an integer, got {text!r}")
        if value < least:
            raise _type_error(f"must be >= {least}, got {value}")
        return value
    return parse


def _parse_k_range(text: str) -> list:
    """'2..7' -> [2..7], '3' -> [3], '2,5,7' -> [2, 5, 7]."""
    try:
        if ".." in text:
            lo, hi = text.split("..")
            ks = list(range(int(lo), int(hi) + 1))
        else:
            ks = [int(v) for v in text.split(",")]
    except ValueError:
        raise _type_error(f"cannot parse k range {text!r}")
    if not ks:
        raise _type_error(f"k range {text!r} is empty")
    return ks


# ----------------------------------------------------------------------
# The leaves that make more than one library call, or pass a keyword.  Each
# returns library results, and imports what it calls as it runs (see _call).


def _search(n_max, t_max, mode, node_budget, table):
    from .equation import search
    return search(n_max, t_max, mode, table, node_budget=node_budget)


def _classify(n, a, table):
    from .equation import EquationInstance, classify
    return classify(EquationInstance(n, a), table)


def _generate(evens, max_n, table, a1=None):
    from .equation import classify, generate_trivial_even, generate_trivial_odd
    if a1 is None:
        return classify(generate_trivial_even(evens, max_n=max_n), table)
    return classify(generate_trivial_odd(a1, evens, max_n=max_n), table)


def _lemma22(k_max, n_max, t_max, node_budget, table):
    from .bounds import composite_block_geometry_scan, sandwich_check
    geometry = composite_block_geometry_scan(k_max, table)
    return [geometry] + [sandwich_check(s, table) for s in _search(n_max, t_max, "r0", node_budget, table)]


def _lemma23(n_max, t_max, node_budget, table):
    from .bounds import EmptyScan, sandwich_check
    checks = [sandwich_check(s, table) for s in _search(n_max, t_max, "r1", node_budget, table)]
    return checks or EmptyScan(0, f"no single-odd-part solutions with n <= {n_max}")


def _val2(m_max, x_max, k_max, samples, seed):
    from .bounds import valuation2_block_sweep, valuation2_factorial_lower_check
    return valuation2_factorial_lower_check(m_max), valuation2_block_sweep(x_max, k_max, samples, seed)


def _dusart(y, y_max, table):
    from .bounds import dusart_check, dusart_sweep
    return dusart_check(y, table) if y is not None else dusart_sweep(y_max, table)


def _call(args, table) -> tuple:
    """Run args' leaf: its records, and exit code 1 if a result has passed false, else 0.

    A library function is read from its home module as the command runs, so
    a command loads only the modules it uses and runs what they hold then.
    """
    name, *params = args.leaf.call.split()
    home = importlib.import_module(__package__)._HOME.get(name)
    fn = globals()[name] if home is None else getattr(importlib.import_module("." + home, __package__), name)
    result = fn(*(table if param == "table" else getattr(args, param) for param in params))
    results = [result] if hasattr(result, "_fields") else result  # one namedtuple, or several
    passed = all(getattr(r, "passed", True) for r in results)
    return [_record(r) for r in results], EXIT_OK if passed else EXIT_FAILED


# ----------------------------------------------------------------------
# The command table.

Command = collections.namedtuple("Command", "call flags")


# --node-budget, refused below 1 before any table is built; its default is
# equation.DEFAULT_NODE_BUDGET, candidates that pass the log cut
_NODE_BUDGET = (_parse_int_at_least(1), 10**8)


# Leaf commands by the words that name them.  A call names the function _call runs, then its
# arguments: the leaf's flags by namespace name, or table.  A flag maps to its type when it is
# required, to its default when it is optional (an int, or (type, default) with a string default
# parsed by the type, as argparse does), or to the tuple of its choices, (choices, default) when
# optional; a tuple of flags is a required choice of exactly one of them.  How much of the table
# a leaf reads is the library's to say, through upto.
COMMANDS = {
    "search": Command(
        "_search n_max t_max mode node_budget table",
        {"--mode": ("r0", "r1"), "--n-max": int, "--t-max": int, "--node-budget": _NODE_BUDGET},
    ),
    "classify": Command("_classify n a table", {"--n": int, "--a": _parse_int_list}),
    "generate trivial-even": Command("_generate evens sieve_limit table", {"--evens": _parse_int_list}),
    "generate trivial-odd": Command(
        "_generate evens sieve_limit table a1", {"--a1": int, "--evens": (_parse_int_list, "")}
    ),
    "verify lemma21": Command("verify_lemma21 nu_max table", {"--nu-max": 10**6}),
    "verify lemma22": Command(
        "_lemma22 k_max n_max t_max node_budget table",
        {"--k-max": 50, "--n-max": 400, "--t-max": 3, "--node-budget": _NODE_BUDGET},
    ),
    "verify lemma23": Command(
        "_lemma23 n_max t_max node_budget table",
        {"--n-max": 400, "--t-max": 3, "--node-budget": _NODE_BUDGET},
    ),
    "verify thm24": Command("theorem24_scan k x_max", {"--k": (_parse_k_range, "2..7"), "--x-max": 5000}),
    "verify val2": Command(
        "_val2 m_max x_max k_max samples seed",
        {"--m-max": 10**6, "--x-max": 10**4, "--k-max": 50, "--samples": 10**4, "--seed": 0},
    ),
    "verify dusart": Command("_dusart y y_max table", {("--y", "--y-max"): int}),
    "verify known-factorials": Command("verify_known_factorial_solutions", {}),
    "bound thm12ii": Command("thm12ii_bound l1", {"--l1": int}),
    "bound ineq3": Command("inequality3_rhs k a2 m", {"--k": int, "--a2": int, "--m": int}),
    "abc triple": Command("make_triple a b table", {"--a": int, "--b": int}),
    "abc proof-triple": Command("proof_triple x j1 j2 table", {"--x": int, "--j1": int, "--j2": int}),
    "abc scan": Command("scan_block_triples x k table", {"--x": int, "--k": int}),
    "block analyze": Command("analyze_block x k table", {"--x": int, "--k": int}),
    "ratio erdos-graham": Command("erdos_graham_ratio n table", {"--n": int}),
    "ratio erdos-block": Command("erdos_ratio x k table", {"--x": int, "--k": int}),
    "gap-witness": Command("odd_gap_obstruction n l table", {"--n": int, "--l": int}),
}

# The flags every leaf takes, in the same form
_SHARED = {
    "--sieve-limit": 10**6,
    "--cache-dir": (Path, None),
    "--format": (tuple(_EMIT), "jsonl"),
    "--threads": (_parse_int_at_least(0), 0),
}

_HELP = {
    "search": "exhaustive solution search",
    "classify": "classify one candidate solution",
    "generate": "construct a trivial-family solution",
    "verify": "run a verification scan",
    "bound": "evaluate a closed-form bound",
    "abc": "coprime sum triples",
    "block": "consecutive-integer block anatomy",
    "ratio": "largest-prime growth ratios",
    "gap-witness": "prime dividing (n-l)!! but not n!!",
    "--threads": "accepted for compatibility and ignored; the search runs in one process",
}
# the placeholder help shows for a flag's value, by flag or by type, where not argparse's own
_METAVARS = {"--sieve-limit": "N", "--cache-dir": "PATH", "--threads": "N",
             _parse_int_list: "LIST", _parse_k_range: "RANGE"}


def _specs(flags: dict):
    """The shared flags' specs, then flags', each as (names, type, default, required, choices).

    Two or more names are a required choice of exactly one; a choice's type is str.
    """
    for key, spec in {**_SHARED, **flags}.items():
        names = key if isinstance(key, tuple) else (key,)
        if isinstance(spec, int):
            yield names, int, spec, False, None
        elif callable(spec):
            yield names, spec, None, True, None
        elif callable(spec[0]):
            yield names, spec[0], spec[1], False, None
        elif isinstance(spec[0], tuple):
            yield names, str, spec[1], False, spec[0]
        else:
            yield names, str, None, True, spec


def build_parser():
    """The dflab argument parser, which run() uses only for help and for argv _read refuses."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="dflab",
        description="Double-factorial product equations: search, classify, verify bounds.",
    )
    top = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for path, command in COMMANDS.items():
        group, _, name = path.rpartition(" ")
        if group and group not in groups:
            sub = top.add_parser(group, help=_HELP[group])
            groups[group] = sub.add_subparsers(dest="command", required=True)
        leaf = groups.get(group, top).add_parser(name, help=_HELP.get(path))
        for names, kind, default, required, choices in _specs(command.flags):
            target = leaf
            if len(names) > 1:  # argparse requires the group, not its members
                target, required = leaf.add_mutually_exclusive_group(required=True), False
            for flag in names:
                target.add_argument(
                    flag, type=kind, default=default, required=required, choices=choices,
                    metavar=_METAVARS.get(flag, _METAVARS.get(kind)), help=_HELP.get(flag),
                )
        leaf.set_defaults(leaf=command, usage_error=leaf.error)
    return parser


def _read(argv):
    """The namespace of a well-formed argv, read from COMMANDS without argparse; else None.

    Well formed is a leaf's words, then one "--flag value" pair per flag
    given: each flag one the leaf takes, spelled in full; no value starting
    with "-"; every required flag or choice given; each value one its type
    takes and among its choices.  argparse gives such an argv the same
    namespace, plus usage_error.
    """
    path = next((path for path in COMMANDS if argv[: path.count(" ") + 1] == path.split()), None)
    if path is None:
        return None
    pairs = argv[path.count(" ") + 1 :]
    given = dict(zip(pairs[::2], pairs[1::2]))
    if 2 * len(given) != len(pairs) or any(text.startswith("-") for text in given.values()):
        return None
    values = {"command": path.rpartition(" ")[2], "leaf": COMMANDS[path]}
    for names, kind, default, required, choices in _specs(COMMANDS[path].flags):
        if required and sum(flag in given for flag in names) != 1:
            return None
        for flag in names:
            if flag not in given:
                value = kind(default) if isinstance(default, str) else default
            else:
                try:
                    value = kind(given.pop(flag))
                except Exception:  # argparse reports, or raises, what the type raised
                    return None
                if choices is not None and value not in choices:
                    return None
            values[flag[2:].replace("-", "_")] = value
    return None if given else types.SimpleNamespace(**values)


def _parse(parser, argv) -> argparse.Namespace:
    """parser's namespace for argv; an argument no parser takes is the named leaf's usage error."""
    args, unrecognized = parser.parse_known_args(argv)
    if unrecognized:
        args.usage_error(f"unrecognized arguments: {' '.join(unrecognized)}")
    return args


def run(argv) -> int:
    args = _read(argv)
    if args is None:
        try:
            args = _parse(build_parser(), argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        table = _TableOnDemand(CommandConfig(args.sieve_limit, args.cache_dir, args.threads))
        records, code = _call(args, table)
    except (ValueError, OverflowError) as exc:
        # SieveRangeError and NotASolutionError are ValueErrors
        print(f"dflab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        from .core import ResourceLimitError  # only a command that loaded core can raise it
        if not isinstance(exc, ResourceLimitError):
            raise
        print(f"dflab: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    _EMIT[args.format](records, sys.stdout)
    return code


def main():
    code = run(sys.argv[1:])
    # The process exits next.  Frozen objects are out of the collector's
    # reach, so interpreter shutdown does not sweep them (about 6 ms of each
    # command) and their cyclic garbage is left to the OS.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
