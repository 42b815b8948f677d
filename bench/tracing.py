"""Traced in-process replay: the per-layer half of the benchmark.

Every public function of the five layers (the modules cli, core, equation,
bounds and abc_triples) is wrapped, for the length of the replay, at every
module attribute that refers to it, so a call from one layer into another
opens a span nested under its caller.  The library itself carries no
instrumentation.  Spans live in memory as [name, start, end, parent,
label] and are written out once, when the replay ends.

Each workload's commands are replayed twice through `cli.run(argv)` with
stdout captured: once plain and once traced.  The difference of the two
pass times is the tracing overhead.  All three workloads are replayed in
every traced run, because each per-layer metric is read on the workload
the benchmark expects it to move (MOVES below); a layer a workload never
calls would otherwise read as an empty zero.
"""

import contextlib
import functools
import io
import json
import os
import shutil
import statistics
import threading
import time
import types

import workloads as wl

LAYERS = ("cli", "core", "equation", "bounds", "abc_triples")
# The layers each workload's commands reach; their self times are reported.
WORKLOAD_LAYERS = {"search": ("cli", "core", "equation"), "verify": LAYERS, "cli-short": LAYERS}
IMPORT_REPEATS = 5
PROBE_REPEATS = {10**6: 5, 10**7: 3}  # sieve builds and cold cache loads, per limit

# Which end-to-end metric, on which workload, each per-layer metric should move.
MOVES = {
    "cli.import_s": "cmd_p50_s on cli-short",
    "cli.load_or_build_sieve.warm_s": "cmd_p50_s and cmd_tail_s on cli-short (oversized cache)",
    "cli.load_or_build_sieve.warm_exact_s": "barely wall_s on search or verify (exact cache)",
    "cli.load_or_build_sieve.cold_s": "setup_s on search and verify",
    "cli.load_or_build_sieve.cold_1e7_s": "setup_s on cli-short",
    "cli.cache_bytes": "peak_rss_mb on cli-short",
    "cli.run_s": "cmd_p50_s on cli-short",
    "cli.overhead_s": "cmd_p50_s on cli-short",
    "core.sieve_primes.1e6_s": "setup_s on search and verify",
    "core.sieve_primes.1e7_s": "setup_s on cli-short",
    "core.lpf_array_s": "wall_s on verify",
    "equation.search.r1-400-3-threads1_s": "wall_s on search (the ROADMAP baseline row)",
    "core.analyze_block_s": "cmd_p50_s on cli-short",
    "core.analyze_block_calls": "cmd_p50_s on cli-short",
    "equation.search_calls": "wall_s on search; not cli-short",
    "equation.solutions": "nothing: an exact count that must not change",
    "equation.classify_s": "wall_s on search",
    "equation.check_identity_s": "wall_s on search",
    "equation.classify.cli-short_s": "cmd_p50_s on cli-short (classify, generate)",
    "equation.check_identity.cli-short_s": "cmd_p50_s on cli-short (classify, generate)",
    "bounds.dusart_check_s": "wall_s on verify",
    "bounds.dusart_check_calls": "wall_s on verify",
    "bounds.theorem24_scan_s": "wall_s on verify",
    "bounds.pairs_scanned": "wall_s on verify",
    "bounds.valuation2_block_bound_check_s": "wall_s on verify",
    "bounds.valuation2_block_bound_check_calls": "wall_s on verify",
    "bounds.valuation2_factorial_lower_check_s": "wall_s on verify",
    "bounds.check_composite_block_geometry_s": "wall_s on verify",
    "bounds.check_composite_block_geometry_calls": "wall_s on verify",
    "bounds.sandwich_check_s": "wall_s on verify",
    "bounds.verify_theta_bound_s": "nothing: vectorized control on verify",
    "bounds.verify_mertens_bound_s": "nothing: vectorized control on verify",
    "abc_triples.scan_block_triples_s": "wall_s on verify",
    "abc_triples.make_triple_s": "cmd_p50_s on cli-short",
}
for _cmd in wl.SEARCH_COMMANDS:
    MOVES[f"equation.search.{_cmd[2]}-{_cmd[4]}-{_cmd[6]}_s"] = "wall_s on search; not cli-short"
for _w in wl.WORKLOADS:
    MOVES[f"trace_overhead.{_w}_s"] = "nothing: the cost of tracing itself"
    for _layer in WORKLOAD_LAYERS[_w]:
        MOVES[f"self.{_w}.{_layer}_s"] = f"wall_s on {_w}"


class Tracer:
    """Spans kept in memory; a span's parent is the span open on its thread."""

    def __init__(self):
        self.spans = []
        self.label = None
        self._local = threading.local()

    def wrap(self, name, fn):
        spans, local, clock = self.spans, self._local, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.label]
            spans.append(span)
            stack.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Wrap each layer's public functions wherever a module refers to them."""
        names = {}
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType):
                    names[fn] = f"{layer}.{attr}"
        wrapped = {fn: self.wrap(name, fn) for fn, name in names.items()}
        saved = []
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])
        try:
            yield
        finally:
            for mod, attr, value in saved:
                setattr(mod, attr, value)

    def self_times(self) -> dict:
        """id(span) -> duration minus the part its child spans cover."""
        child = {}
        for s in self.spans:
            if s[3] is not None:
                child[id(s[3])] = child.get(id(s[3]), 0.0) + s[2] - s[1]
        return {id(s): s[2] - s[1] - child.get(id(s), 0.0) for s in self.spans}

    def dump(self, path, header: dict):
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = min((s[1] for s in self.spans), default=0.0)
        rows = [
            [s[0], round((s[1] - t0) * 1e9), round((s[2] - t0) * 1e9),
             index[id(s[3])] if s[3] is not None else -1, s[4]]
            for s in self.spans
        ]
        with open(path, "w") as f:
            json.dump(dict(header, span_fields=["name", "start_ns", "end_ns", "parent", "label"],
                           spans=rows), f, separators=(",", ":"))


def _replay(cli, cmds, label, tracer=None):
    """Run each command through cli.run in-process; (pass seconds, [(code, stdout)])."""
    outputs = []
    t0 = time.perf_counter()
    for i, cmd in enumerate(cmds):
        if tracer is not None:
            tracer.label = f"{label}#{i}"
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(list(cmd))
        outputs.append((code, out.getvalue().encode()))
    return time.perf_counter() - t0, outputs


def run(seed: int, work, spawn, child_env) -> tuple:
    """Probe and replay every workload; (metrics, gate, tracer)."""
    from dflab import cli, core, equation, bounds, abc_triples

    modules = dict(zip(LAYERS, (cli, core, equation, bounds, abc_triples)))
    tracer = Tracer()
    gate = wl.Gate()
    m = {}
    import_times = []
    for _ in range(IMPORT_REPEATS):
        wall, code, _, _ = spawn(["-c", "import dflab"], child_env(work / "import"))
        import_times.append(wall)
        gate.count("import dflab", [f"exit {code}"] if code else [])
    m["cli.import_s"] = statistics.median(import_times)

    def durations(name, group):
        """Durations of the spans of name whose label is group, or group#<command>."""
        return [s[2] - s[1] for s in tracer.spans if s[0] == name and s[4].split("#")[0] == group]

    with tracer.installed(modules):
        for limit, tag in ((10**6, "1e6"), (10**7, "1e7")):
            tracer.label = f"probe:sieve:{tag}"
            for _ in range(PROBE_REPEATS[limit]):
                table = core.sieve_primes(limit)
            m[f"core.sieve_primes.{tag}_s"] = statistics.median(
                durations("core.sieve_primes", tracer.label))
            tracer.label = f"probe:cold:{tag}"
            for _ in range(PROBE_REPEATS[limit]):
                cold = work / "cold"
                shutil.rmtree(cold, ignore_errors=True)
                cli.load_or_build_sieve(cli.CommandConfig(sieve_limit=limit, cache_dir=cold))
        tracer.label = "probe:search"
        equation.search(400, 3, "r1", table, threads=1)
        (m["equation.search.r1-400-3-threads1_s"],) = durations("equation.search", "probe:search")
        m["cli.load_or_build_sieve.cold_s"] = statistics.median(
            durations("cli.load_or_build_sieve", "probe:cold:1e6"))
        m["cli.load_or_build_sieve.cold_1e7_s"] = statistics.median(
            durations("cli.load_or_build_sieve", "probe:cold:1e7"))

    outputs = {}
    saved_env = os.environ.get("DFLAB_CACHE_DIR")
    try:
        for name in wl.WORKLOADS:
            setup, cmds = wl.workload(name, seed)
            cache = work / f"replay-{name}"
            shutil.rmtree(cache, ignore_errors=True)
            os.environ["DFLAB_CACHE_DIR"] = str(cache)
            _, [(code, stdout)] = _replay(cli, [setup], name)
            gate.judge(setup, code, stdout)
            plain_s, plain = _replay(cli, cmds, name)
            with tracer.installed(modules):
                traced_s, traced = _replay(cli, cmds, name, tracer)
            for cmd, a, b in zip(cmds, plain, traced):
                gate.judge(cmd, *a)
                gate.judge(cmd, *b)
            m[f"trace_overhead.{name}_s"] = traced_s - plain_s
            outputs[name] = (cmds, traced, cache)
    finally:
        if saved_env is None:
            os.environ.pop("DFLAB_CACHE_DIR", None)
        else:
            os.environ["DFLAB_CACHE_DIR"] = saved_env

    selfs = tracer.self_times()

    def self_time(group, name_prefix):
        return sum(selfs[id(s)] for s in tracer.spans
                   if s[0].startswith(name_prefix) and s[4].split("#")[0] == group)

    m["cli.load_or_build_sieve.warm_s"] = statistics.median(
        durations("cli.load_or_build_sieve", "cli-short"))
    m["cli.load_or_build_sieve.warm_exact_s"] = statistics.median(
        durations("cli.load_or_build_sieve", "search") + durations("cli.load_or_build_sieve", "verify"))
    cache_file = outputs["cli-short"][2] / "sieve.dfl"
    with open(cache_file, "rb") as f:
        limit = int.from_bytes(f.read(16)[8:16], "little")  # header: magic, version, uint64 limit
    size, computed = cache_file.stat().st_size, 32 + 4 * (limit + 1)
    gate.count("cli-short cache file", [f"{size} bytes, header implies {computed}"] if size != computed else [])
    m["cli.cache_bytes"] = size
    m["cli.run_s"] = sum(durations("cli.run", "cli-short"))
    m["cli.overhead_s"] = self_time("cli-short", "cli.run")
    m["core.lpf_array_s"] = sum(durations("core.lpf_array", "verify"))
    m["core.analyze_block_s"] = sum(durations("core.analyze_block", "cli-short"))
    m["core.analyze_block_calls"] = len(durations("core.analyze_block", "cli-short"))

    search_cmds, search_out, _ = outputs["search"]
    for i, cmd in enumerate(search_cmds):
        m[f"equation.search.{cmd[2]}-{cmd[4]}-{cmd[6]}_s"] = sum(
            s[2] - s[1] for s in tracer.spans if s[0] == "equation.search" and s[4] == f"search#{i}")
    m["equation.search_calls"] = len(durations("equation.search", "search"))
    m["equation.solutions"] = sum(len(stdout.splitlines()) for _, stdout in search_out)
    for fn in ("classify", "check_identity"):
        m[f"equation.{fn}_s"] = sum(durations(f"equation.{fn}", "search"))
        m[f"equation.{fn}.cli-short_s"] = sum(durations(f"equation.{fn}", "cli-short"))

    for fn in ("dusart_check", "valuation2_block_bound_check", "check_composite_block_geometry"):
        m[f"bounds.{fn}_s"] = sum(durations(f"bounds.{fn}", "verify"))
        m[f"bounds.{fn}_calls"] = len(durations(f"bounds.{fn}", "verify"))
    for fn in ("theorem24_scan", "valuation2_factorial_lower_check", "sandwich_check",
               "verify_theta_bound", "verify_mertens_bound"):
        m[f"bounds.{fn}_s"] = sum(durations(f"bounds.{fn}", "verify"))
    verify_cmds, verify_out, _ = outputs["verify"]
    (thm24,) = [out for cmd, (_, out) in zip(verify_cmds, verify_out) if cmd[1] == "thm24"]
    m["bounds.pairs_scanned"] = json.loads(thm24)["payload"]["details"]["pairs_scanned"]
    m["abc_triples.scan_block_triples_s"] = sum(durations("abc_triples.scan_block_triples", "verify"))
    m["abc_triples.make_triple_s"] = sum(durations("abc_triples.make_triple", "cli-short"))
    for name, layers in WORKLOAD_LAYERS.items():
        for layer in layers:
            m[f"self.{name}.{layer}_s"] = self_time(name, layer + ".")
    return m, gate, tracer
