"""Command-line surface: search, classification, generation, verification.

Every subcommand writes structured records to stdout (jsonl by default,
csv or human on request) and diagnostics to stderr.  Exit codes: 0 ok,
1 verification failure (a counterexample was found), 2 usage error,
3 resource limit.  Records are buffered and emitted after all work is
done, in a deterministic order.

The sieve is cached on disk in two files.  sieve.dfl holds a 32-byte
header (magic "DFL1", uint32 version 1, uint64 limit, uint32 CRC-32 of the
payload, 12 zero bytes) followed by the smallest-prime-factor array as
little-endian uint32 entries for indices 0..limit (entries 0 and 1 are
zero).  sieve.crc holds one CRC-32 per chunk of 2**20 entries: a 32-byte
header (magic "DFC1", uint32 version 1, uint64 limit, uint32 payload CRC,
uint32 chunk size in entries, uint32 CRC-32 of the chunk table, 4 zero
bytes) followed by ceil((limit+1) / chunk) uint32 LE chunk CRCs, the last
chunk being short.  All integers are little-endian.

A command with --sieve-limit N gets a table whose limit is exactly N.  When
the sidecar matches sieve.dfl (same limit and payload CRC, the chunk size
above, an intact chunk table, both file sizes as their headers imply), only
the chunks covering entries 0..N are read, each checked against its CRC.
Otherwise (no sidecar, a stale one, or a cache written before sidecars
existed) the whole payload is read and checked against the header CRC, and
the sidecar is written afresh.  A damaged header, payload length or checked
chunk rebuilds the cache with a warning; a cache smaller than N is rebuilt
at N.  Both files are written through unique temp files and renamed into
place, so processes sharing a cache directory never see a partial file.
"""

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import struct
import sys
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    PrimeTable,
    SieveRangeError,
    analyze_block,
    check_sieve_memory,
    sieve_primes,
)
from .equation import (
    EquationInstance,
    NotASolutionError,
    ResourceLimitError,
    classify,
    generate_trivial_even,
    generate_trivial_odd,
    odd_gap_obstruction,
    search,
    verify_known_factorial_solutions,
)
from . import bounds
from . import abc_triples as abct

__all__ = [
    "CommandConfig",
    "OutputRecord",
    "load_or_build_sieve",
    "run",
    "main",
    "CACHE_ENV_VAR",
]

SCHEMA_VERSION = 1
CACHE_ENV_VAR = "DFLAB_CACHE_DIR"
CACHE_FILENAME = "sieve.dfl"
CRC_FILENAME = "sieve.crc"
CACHE_MAGIC = b"DFL1"
CRC_MAGIC = b"DFC1"
CACHE_FORMAT_VERSION = 1
CRC_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQI12s")
_CRC_HEADER = struct.Struct("<4sIQIII4s")
# entries per sidecar CRC: a load reads and checks whole chunks of 4 MiB
_CHUNK_ENTRIES = 1 << 20

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


@dataclass
class CommandConfig:
    sieve_limit: int = 10**6
    cache_dir: Path = None
    output_format: str = "jsonl"
    threads: int = 0  # accepted for compatibility; the search runs in one process
    node_budget: int = 10**8

    def __post_init__(self):
        if self.cache_dir is None:
            env = os.environ.get(CACHE_ENV_VAR)
            base = Path(env) if env else Path.home() / ".cache" / "dflab"
            self.cache_dir = base
        self.cache_dir = Path(self.cache_dir)
        if self.sieve_limit < 2:
            raise ValueError("sieve limit must be >= 2")
        if self.node_budget < 1:
            raise ValueError("node budget must be >= 1")
        if self.threads < 0:
            raise ValueError("threads must be >= 0")
        if self.output_format not in ("jsonl", "csv", "human"):
            raise ValueError(f"unknown output format {self.output_format!r}")

    def effective_threads(self) -> int:
        return self.threads if self.threads > 0 else max(1, os.cpu_count() or 1)


@dataclass
class OutputRecord:
    kind: str  # solution | bound_check | triple | scan_summary
    payload: dict
    schema_version: int = SCHEMA_VERSION


class _CacheInvalid(Exception):
    pass


def _cache_path(config: CommandConfig) -> Path:
    return config.cache_dir / CACHE_FILENAME


def _chunk_crcs(spf: np.ndarray) -> list:
    return [
        zlib.crc32(spf[i : i + _CHUNK_ENTRIES]) for i in range(0, spf.size, _CHUNK_ENTRIES)
    ]


def _sidecar_blob(limit: int, payload_crc: int, crcs: list) -> bytes:
    table = struct.pack(f"<{len(crcs)}I", *crcs)
    header = _CRC_HEADER.pack(
        CRC_MAGIC, CRC_FORMAT_VERSION, limit, payload_crc, _CHUNK_ENTRIES, zlib.crc32(table),
        bytes(4),
    )
    return header + table


def _read_sidecar(path: Path, limit: int, payload_crc: int) -> tuple | None:
    """Chunk CRCs of the sieve file with this limit and payload CRC; None if absent or stale."""
    n_chunks = -(-(limit + 1) // _CHUNK_ENTRIES)
    size = _CRC_HEADER.size + 4 * n_chunks
    try:
        with open(path, "rb") as f:
            blob = f.read(size + 1)
    except OSError:
        return None
    if len(blob) != size:
        return None
    crcs = struct.unpack_from(f"<{n_chunks}I", blob, _CRC_HEADER.size)
    return crcs if blob == _sidecar_blob(limit, payload_crc, crcs) else None


def _read_checked(f, entries: int, chunk: int, crcs) -> np.ndarray:
    """Read entries uint32 values from f in chunks of chunk entries, checking each CRC."""
    spf = np.empty(entries, dtype="<u4")
    for i, start in enumerate(range(0, entries, chunk)):
        view = spf[start : start + chunk]
        if f.readinto(view) != view.nbytes:
            raise _CacheInvalid("truncated payload")
        if zlib.crc32(view) != crcs[i]:
            raise _CacheInvalid(f"checksum mismatch in entries {start}..{start + view.size - 1}")
    return spf


def _read_cache(path: Path, need: int) -> PrimeTable | None:
    """PrimeTable(need, ...) from the cache, every byte CRC-checked; None if the cache is too small.

    With a matching sidecar only the chunks covering 0..need are read, each
    checked against its own CRC.  Without one the whole payload is read and
    checked against the header CRC, and the sidecar is written afresh.
    """
    with open(path, "rb") as f:
        st = os.fstat(f.fileno())
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
        if st.st_size != _HEADER.size + 4 * (limit + 1):
            raise _CacheInvalid("payload length does not match limit")
        if limit < need:
            return None
        sidecar = path.with_name(CRC_FILENAME)
        crcs = _read_sidecar(sidecar, limit, crc)
        if crcs is not None:
            chunks = -(-(need + 1) // _CHUNK_ENTRIES)
            spf = _read_checked(f, min(limit + 1, chunks * _CHUNK_ENTRIES), _CHUNK_ENTRIES, crcs)
            return PrimeTable(need, spf[: need + 1])
        spf = _read_checked(f, limit + 1, limit + 1, [crc])
    try:
        if os.path.samestat(st, os.stat(path)):  # skip if another process replaced the cache
            _write_atomic(sidecar, _sidecar_blob(limit, crc, _chunk_crcs(spf)))
    except OSError as exc:
        print(f"dflab: cannot persist sieve checksums: {exc}", file=sys.stderr)
    return PrimeTable(need, spf[: need + 1].copy() if need < limit else spf)


def _write_atomic(path: Path, *parts):
    """Write parts to a unique temp file in path's directory, then rename it to path."""
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
    spf = np.ascontiguousarray(table.spf, dtype="<u4")
    crc = zlib.crc32(spf)
    header = _HEADER.pack(CACHE_MAGIC, CACHE_FORMAT_VERSION, table.limit, crc, bytes(12))
    _write_atomic(path, header, spf)
    _write_atomic(path.with_name(CRC_FILENAME), _sidecar_blob(table.limit, crc, _chunk_crcs(spf)))


def load_or_build_sieve(config: CommandConfig) -> PrimeTable:
    """The sieve to exactly config.sieve_limit: a checked cache prefix, else built and persisted."""
    check_sieve_memory(config.sieve_limit)
    path = _cache_path(config)
    if path.exists():
        try:
            table = _read_cache(path, config.sieve_limit)
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
    return table


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, Path):
        return str(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if dataclasses.is_dataclass(obj):
        return _jsonable(dataclasses.asdict(obj))
    return repr(obj)


def _record(kind: str, result, lift: str | None = None, **derived) -> OutputRecord:
    """A record of result's dataclass fields plus the derived values given.

    The fields of the nested dataclass named by lift move to the top level.
    """
    payload = dataclasses.asdict(result)
    if lift:
        payload.update(payload.pop(lift))
    payload.update(derived)
    return OutputRecord(kind, payload)


def _solution_records(solutions) -> list:
    """Solution records: the instance's n and a at the top level, plus t and r."""
    return [_record("solution", s, "instance", t=s.instance.t, r=s.instance.r) for s in solutions]


def _checks(results) -> tuple:
    """Bound-check records and the exit code: 1 if any check failed."""
    records = [_record("bound_check", r, passed=r.passed) for r in results]
    return records, EXIT_OK if all(r.passed for r in results) else EXIT_FAILED


def _emit_jsonl(records, out):
    for rec in records:
        obj = {
            "kind": rec.kind,
            "schema_version": rec.schema_version,
            "payload": _jsonable(rec.payload),
        }
        out.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _emit_csv(records, out):
    keys = sorted({k for rec in records for k in rec.payload})
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["kind", "schema_version"] + [f"payload.{k}" for k in keys])
    for rec in records:
        row = [rec.kind, rec.schema_version]
        payload = _jsonable(rec.payload)
        for k in keys:
            if k not in payload:
                row.append("")
                continue
            v = payload[k]
            if isinstance(v, (dict, list)):
                row.append(json.dumps(v, sort_keys=True, separators=(",", ":")))
            else:
                row.append(v)
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


def _emit(records, fmt, out=None):
    out = out or sys.stdout
    if fmt == "jsonl":
        _emit_jsonl(records, out)
    elif fmt == "csv":
        _emit_csv(records, out)
    else:
        _emit_human(records, out)


def _parse_int_list(text: str) -> list:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _parse_nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parse_k_range(text: str) -> list:
    """'2..7' -> [2..7], '3' -> [3], '2,5,7' -> [2, 5, 7]."""
    try:
        if ".." in text:
            lo, hi = text.split("..")
            ks = list(range(int(lo), int(hi) + 1))
        else:
            ks = [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse k range {text!r}")
    if not ks:
        raise argparse.ArgumentTypeError(f"k range {text!r} is empty")
    return ks


# ----------------------------------------------------------------------
# Subcommand handlers: each returns (records, exit_code).


def _search(args, config, table, mode):
    """search() over the command's --n-max and --t-max, honouring the shared flags."""
    return search(
        args.n_max,
        args.t_max,
        mode,
        table,
        node_budget=config.node_budget,
    )


def _cmd_search(args, config, table):
    return _solution_records(_search(args, config, table, args.mode)), EXIT_OK


def _cmd_classify(args, config, table):
    inst = EquationInstance(args.n, tuple(args.a))
    return _solution_records([classify(inst, table)]), EXIT_OK


def _cmd_generate(args, config, table):
    if args.family == "trivial-even":
        inst = generate_trivial_even(args.evens, max_n=args.max_n)
    else:
        inst = generate_trivial_odd(args.a1, args.evens or (), max_n=args.max_n)
    return _solution_records([classify(inst, table)]), EXIT_OK


def _require_at_least(flag, value, least):
    """Usage error unless value >= least, so that a sweep never passes over an empty domain."""
    if value < least:
        raise ValueError(f"{flag} must be >= {least}, got {value}")


def _cmd_verify_lemma21(args, config, table):
    results = [
        bounds.verify_theta_bound(args.nu_max, table),
        bounds.verify_mertens_bound(args.nu_max, table),
    ]
    return _checks(results)


def _cmd_verify_lemma22(args, config, table):
    _require_at_least("--k-max", args.k_max, 3)
    results = [bounds.composite_block_geometry_scan(args.k_max, table)]
    for rec in _search(args, config, table, "r0"):
        results.append(bounds.sandwich_check(rec.instance, table))
    return _checks(results)


def _cmd_verify_lemma23(args, config, table):
    results = []
    for rec in _search(args, config, table, "r1"):
        results.append(bounds.sandwich_check(rec.instance, table))
    if not results:
        return [
            OutputRecord(
                "scan_summary",
                {"checked": 0, "note": f"no single-odd-part solutions with n <= {args.n_max}"},
            )
        ], EXIT_OK
    return _checks(results)


def _cmd_verify_thm24(args, config, table):
    _, result = bounds.theorem24_scan(args.k, args.x_max, table)
    return _checks([result])


def _cmd_verify_val2(args, config, table):
    _require_at_least("--x-max", args.x_max, 2)
    _require_at_least("--k-max", args.k_max, 1)
    _require_at_least("--samples", args.samples, 1)
    block_end = args.x_max + args.k_max - 1
    if block_end > table.limit:
        raise SieveRangeError(f"--x-max + --k-max - 1 = {block_end} exceeds sieve limit {table.limit}")
    return _checks([
        bounds.valuation2_factorial_lower_check(args.m_max),
        bounds.valuation2_block_sweep(args.x_max, args.k_max, args.samples, args.seed),
    ])


def _cmd_verify_dusart(args, config, table):
    if args.y is not None:
        return _checks([bounds.dusart_check(args.y, table)])
    _require_at_least("--y-max", args.y_max, bounds.DUSART_MIN_Y)
    if args.y_max > table.limit:
        raise SieveRangeError(f"--y-max={args.y_max} exceeds sieve limit {table.limit}")
    return _checks([bounds.dusart_sweep(args.y_max, table)])


def _cmd_verify_known(args, config, table):
    rows = verify_known_factorial_solutions()
    payload = {
        "identities": [{"identity": label, "holds": ok} for label, ok in rows],
        "all_hold": all(ok for _, ok in rows),
    }
    return [OutputRecord("scan_summary", payload)], (
        EXIT_OK if payload["all_hold"] else EXIT_FAILED
    )


def _cmd_bound_thm12ii(args, config, table):
    value = bounds.thm12ii_bound(args.l1)
    return [OutputRecord("scan_summary", {"l1": args.l1, "a1_upper_bound": value})], EXIT_OK


def _cmd_bound_ineq3(args, config, table):
    rhs, holds = abct.inequality3_rhs(args.k, args.a2, args.m)
    payload = {
        "k": args.k,
        "a2": args.a2,
        "m": args.m,
        "lhs": args.k * math.log(args.m),
        "rhs": rhs,
        "holds": holds,
    }
    return [OutputRecord("scan_summary", payload)], EXIT_OK


def _cmd_abc_triple(args, config, table):
    return [_record("triple", abct.make_triple(args.a, args.b, table))], EXIT_OK


def _cmd_abc_proof_triple(args, config, table):
    res = abct.proof_triple(args.x, args.j1, args.j2, table)
    return [_record("triple", res, "triple")], EXIT_OK


def _cmd_abc_scan(args, config, table):
    return [_record("triple", abct.scan_block_triples(args.x, args.k, table), "triple")], EXIT_OK


def _cmd_block_analyze(args, config, table):
    return [_record("scan_summary", analyze_block(args.x, args.k, table))], EXIT_OK


def _cmd_ratio_erdos_graham(args, config, table):
    value = bounds.erdos_graham_ratio(args.n, table)
    return [OutputRecord("scan_summary", {"n": args.n, "ratio": value})], EXIT_OK


def _cmd_ratio_erdos_block(args, config, table):
    value = bounds.erdos_ratio(args.x, args.k, table)
    payload = {"x": args.x, "k": args.k, "ratio": value, "all_composite": value is not None}
    return [OutputRecord("scan_summary", payload)], EXIT_OK


def _cmd_gap_witness(args, config, table):
    p = odd_gap_obstruction(args.n, args.l, table)
    payload = {"n": args.n, "l": args.l, "witness": p}
    return [OutputRecord("scan_summary", payload)], EXIT_OK


# ----------------------------------------------------------------------


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--sieve-limit", type=int, default=10**6, metavar="N")
    common.add_argument("--cache-dir", type=Path, default=None, metavar="PATH")
    common.add_argument(
        "--format", choices=("jsonl", "csv", "human"), default="jsonl", dest="output_format"
    )
    common.add_argument(
        "--threads",
        type=_parse_nonneg_int,
        default=0,
        metavar="N",
        help="accepted for compatibility and ignored; the search runs in one process",
    )
    common.add_argument("--node-budget", type=int, default=10**8, metavar="N")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="dflab",
        description="Double-factorial product equations: search, classify, verify bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", parents=[common], help="exhaustive solution search")
    p.add_argument("--mode", choices=("r0", "r1"), required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--t-max", type=int, required=True)
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("classify", parents=[common], help="classify one candidate solution")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=_parse_int_list, required=True, metavar="LIST")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("generate", help="construct a trivial-family solution")
    gsub = p.add_subparsers(dest="family", required=True)
    ge = gsub.add_parser("trivial-even", parents=[common])
    ge.add_argument("--evens", type=_parse_int_list, required=True, metavar="LIST")
    ge.add_argument("--max-n", type=int, default=10**9)
    ge.set_defaults(handler=_cmd_generate, family="trivial-even")
    go = gsub.add_parser("trivial-odd", parents=[common])
    go.add_argument("--a1", type=int, required=True)
    go.add_argument("--evens", type=_parse_int_list, default=[], metavar="LIST")
    go.add_argument("--max-n", type=int, default=10**9)
    go.set_defaults(handler=_cmd_generate, family="trivial-odd")

    p = sub.add_parser("verify", help="run a verification scan")
    vsub = p.add_subparsers(dest="check", required=True)
    v = vsub.add_parser("lemma21", parents=[common])
    v.add_argument("--nu-max", type=int, default=10**6)
    v.set_defaults(handler=_cmd_verify_lemma21)
    v = vsub.add_parser("lemma22", parents=[common])
    v.add_argument("--k-max", type=int, default=50)
    v.add_argument("--n-max", type=int, default=400)
    v.add_argument("--t-max", type=int, default=3)
    v.set_defaults(handler=_cmd_verify_lemma22)
    v = vsub.add_parser("lemma23", parents=[common])
    v.add_argument("--n-max", type=int, default=400)
    v.add_argument("--t-max", type=int, default=3)
    v.set_defaults(handler=_cmd_verify_lemma23)
    v = vsub.add_parser("thm24", parents=[common])
    v.add_argument("--k", type=_parse_k_range, default=list(range(2, 8)), metavar="RANGE")
    v.add_argument("--x-max", type=int, default=5000)
    v.set_defaults(handler=_cmd_verify_thm24)
    v = vsub.add_parser("val2", parents=[common])
    v.add_argument("--m-max", type=int, default=10**6)
    v.add_argument("--x-max", type=int, default=10**4)
    v.add_argument("--k-max", type=int, default=50)
    v.add_argument("--samples", type=int, default=10**4)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(handler=_cmd_verify_val2)
    v = vsub.add_parser("dusart", parents=[common])
    one_or_sweep = v.add_mutually_exclusive_group(required=True)
    one_or_sweep.add_argument("--y", type=int, default=None)
    one_or_sweep.add_argument("--y-max", type=int, default=None)
    v.set_defaults(handler=_cmd_verify_dusart)
    v = vsub.add_parser("known-factorials", parents=[common])
    v.set_defaults(handler=_cmd_verify_known)

    p = sub.add_parser("bound", help="evaluate a closed-form bound")
    bsub = p.add_subparsers(dest="which", required=True)
    b = bsub.add_parser("thm12ii", parents=[common])
    b.add_argument("--l1", type=int, required=True)
    b.set_defaults(handler=_cmd_bound_thm12ii)
    b = bsub.add_parser("ineq3", parents=[common])
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--a2", type=int, required=True)
    b.add_argument("--m", type=int, required=True)
    b.set_defaults(handler=_cmd_bound_ineq3)

    p = sub.add_parser("abc", help="coprime sum triples")
    asub = p.add_subparsers(dest="which", required=True)
    a = asub.add_parser("triple", parents=[common])
    a.add_argument("--a", type=int, required=True)
    a.add_argument("--b", type=int, required=True)
    a.set_defaults(handler=_cmd_abc_triple)
    a = asub.add_parser("proof-triple", parents=[common])
    a.add_argument("--x", type=int, required=True)
    a.add_argument("--j1", type=int, required=True)
    a.add_argument("--j2", type=int, required=True)
    a.set_defaults(handler=_cmd_abc_proof_triple)
    a = asub.add_parser("scan", parents=[common])
    a.add_argument("--x", type=int, required=True)
    a.add_argument("--k", type=int, required=True)
    a.set_defaults(handler=_cmd_abc_scan)

    p = sub.add_parser("block", help="consecutive-integer block anatomy")
    ksub = p.add_subparsers(dest="which", required=True)
    k = ksub.add_parser("analyze", parents=[common])
    k.add_argument("--x", type=int, required=True)
    k.add_argument("--k", type=int, required=True)
    k.set_defaults(handler=_cmd_block_analyze)

    p = sub.add_parser("ratio", help="largest-prime growth ratios")
    rsub = p.add_subparsers(dest="which", required=True)
    r = rsub.add_parser("erdos-graham", parents=[common])
    r.add_argument("--n", type=int, required=True)
    r.set_defaults(handler=_cmd_ratio_erdos_graham)
    r = rsub.add_parser("erdos-block", parents=[common])
    r.add_argument("--x", type=int, required=True)
    r.add_argument("--k", type=int, required=True)
    r.set_defaults(handler=_cmd_ratio_erdos_block)

    p = sub.add_parser(
        "gap-witness", parents=[common], help="prime dividing (n-l)!! but not n!!"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.set_defaults(handler=_cmd_gap_witness)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = CommandConfig(
            sieve_limit=args.sieve_limit,
            cache_dir=args.cache_dir,
            output_format=args.output_format,
            threads=args.threads,
            node_budget=args.node_budget,
        )
        table = load_or_build_sieve(config)
        records, code = args.handler(args, config, table)
    except ResourceLimitError as exc:
        print(f"dflab: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (
        SieveRangeError,
        NotASolutionError,
        bounds.HypothesisViolationError,
        ValueError,
        OverflowError,
    ) as exc:
        print(f"dflab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(records, config.output_format)
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
