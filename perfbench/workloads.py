"""The three workloads: ``fit_20k``, ``online_unpruned``, ``batch_pruned``.

Every workload reports the same four end-to-end metrics (their meaning per
workload is tabled in ``perfbench/README.md``) and, when traced, the same
per-layer metrics: each workload fits its own model, loads and serves it,
so every layer has a reading on every workload.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import layers
from client import Driver, Exchange, post
from common import ROOT, Report, Spans, child_env, iqm, median, percentile
from inputs import (
    FIT_DATASETS,
    FIT_MIN_SUPPORT,
    HELDOUT_OFFSET,
    WORLD,
    WORLD_MIN_SUPPORT,
    basket_json,
    distinct_baskets,
    encode,
    fit_config,
    fit_seeds,
    world_dataset,
)
from repro.campaign import plan_campaign
from repro.core.rule_index import basket_key
from repro.data.datasets import build_dataset, dataset_i_config
from repro.data.io import save_transactions
from repro.data.model_io import load_model
from server import ServeProcess

#: The p90 limit a ladder rate must meet to count toward ``max_rate_rps``.
LATENCY_LIMIT_MS = 10.0
#: A ladder step whose generator ran later than this at p90 (the
#: percentile steps are judged on) is invalid.
LAG_LIMIT_MS = 1.0
CONNECTIONS = 2
#: Extra ``serve`` flags of a traced run: every serve call is sampled.
TRACED_DAEMON = ("--trace-sample-rate", "1")
#: Share of ``--seconds`` for online_unpruned's closed-loop capacity phase.
CAPACITY_SHARE = 0.4
BATCH_BASKETS = 100
PLAN_BASKETS = 200
#: batch_pruned's phases and their shares of ``--seconds``; they take
#: turns in ``BATCH_SLICES`` rounds.  Plans alone and beside batches
#: come to well over 200 plans.
PHASE_SHARES = {"batches": 0.55, "plans": 0.25, "mix": 0.2}
BATCH_SLICES = 5
TOP_K = 3
MAX_OFFERS = 3
#: Stage spans that add up to one staged fit (for ``fit.attributed_ratio``).
FIT_STAGES = (
    "data.io.load_s", "core.moa.build_s", "core.mining.index_build_s",
    "core.engine.kernel.mask_matrix_s", "core.mining.mine_s",
    "core.covering.build_s", "core.pruning.prune_s", "core.engine.compile_s",
    "data.model_io.save_s",
)


@dataclass(frozen=True)
class Scale:
    fit_transactions: int
    heldout: int
    #: (rate in req/s, share): a step sends ``share`` units of requests.
    ladder: tuple[tuple[int, int], ...]
    min_step: int  # requests per ladder share unit, at least
    #: Distinct baskets the capacity phase may use per second it runs.
    capacity_baskets_per_s: int
    spawns: int  # serve start-ups per run (setup_s is their median)
    pool: int  # distinct baskets cycled by batch_pruned
    repeats: int  # repeats of in-process layer probes


SCALES = {
    # 200 req/s carries the gated latency, so it gets two shares.
    "full": Scale(20_000, 500, ((200, 2), (800, 1), (1200, 1)),
                  1000, 2000, 3, 4000, 3),
    # A seconds-long smoke run of the same code paths.
    "tiny": Scale(2_000, 100, ((200, 1), (800, 1)), 40, 200, 1, 400, 1),
}


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    scale: Scale
    report: Report
    spans: Spans
    dir: Path


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------
def write_db(config, path: Path) -> None:
    save_transactions(build_dataset(config).db, path)


def fit_child(run: Run, *args: str) -> dict[str, Any]:
    """Run ``fit_child.py`` in a fresh interpreter; returns its JSON."""
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "fit_child.py"), *args],
        capture_output=True, env=child_env(), text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"fit child failed:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["imported_at"] - spawned_at
    run.report.attempted += 1
    run.report.fail(
        out["mismatches"],
        f"{out['mismatches']} of {out['checked']} held-out picks differ "
        "between the fitted and the saved model",
    )
    return out


def fit_world(run: Run, initial: bool) -> tuple[Path, dict[str, Any], list[str]]:
    """Write the pinned serving world and fit its artifact in a child."""
    data, heldout = run.dir / "world.jsonl", run.dir / "world-heldout.jsonl"
    save_transactions(world_dataset().db, data)
    write_db(
        dataset_i_config(
            n_transactions=run.scale.heldout, n_items=WORLD["n_items"],
            seed=run.seed + HELDOUT_OFFSET,
        ),
        heldout,
    )
    artifact = run.dir / ("unpruned.json" if initial else "pruned.json")
    args = ["--data", str(data), "--out", str(artifact), "--heldout", str(heldout),
            "--min-support", str(WORLD_MIN_SUPPORT), "--levels", "1"]
    if initial:
        args.append("--initial")
    return artifact, fit_child(run, *args), args


def staged_fit_layers(run: Run, args: list[str], untraced_fit_s: float) -> dict:
    """The traced fit: one span per layer, in a fresh interpreter."""
    out_path = args[args.index("--out") + 1]
    staged = list(args)
    staged[staged.index("--out") + 1] = str(run.dir / "staged-model.json")
    spans_file = run.dir / "staged-spans.json"
    with run.spans.span("fit.staged") as timer:
        out = fit_child(run, *staged, "--staged", "--compare", out_path,
                        "--spans-out", str(spans_file))
    if timer.span_id is not None:
        with open(spans_file, encoding="utf-8") as handle:
            run.spans.adopt(json.load(handle)["spans"], timer.span_id)
    found = dict(out["layers"])
    wall = found.pop("fit.staged_wall_s")
    found["fit.attributed_ratio"] = sum(found[s] for s in FIT_STAGES) / untraced_fit_s
    found["trace.overhead_ratio"] = wall / untraced_fit_s - 1.0
    return found


def check_json(body: bytes, expected: Any) -> bool:
    try:
        got = json.loads(body)
    except ValueError:
        return False
    if not isinstance(got, dict):
        return False
    got.pop("model", None)
    got.pop("generation", None)
    return got == expected


def record_exchanges(run: Run, name: str, exchanges: Sequence[Exchange]) -> None:
    if run.spans.enabled:
        for ex in exchanges:
            run.spans.add(name, ex.due, ex.done, request_id=ex.request_id)


def start_daemon(
    run: Run, artifact: Path, probe: bytes, extra: tuple[str, ...] = ()
) -> tuple[ServeProcess, list[float]]:
    """Spawn ``serve`` ``spawns`` times; keep the last one running."""
    setups = []
    for i in range(run.scale.spawns):
        daemon = ServeProcess(artifact, run.dir / "serve.log", extra)
        with run.spans.span("serve.startup"):
            setups.append(daemon.start(probe))
        run.report.attempted += 1
        if i < run.scale.spawns - 1:
            daemon.stop()
    return daemon, setups


# ---------------------------------------------------------------------------
# fit_20k
# ---------------------------------------------------------------------------
def fit_20k(run: Run) -> None:
    scale = run.scale
    heldout = run.dir / "heldout.jsonl"
    write_db(fit_config(run.seed + HELDOUT_OFFSET, scale.heldout), heldout)
    args = []
    for i, seed in enumerate(fit_seeds(run.seed)):
        data = run.dir / f"data-{i}.jsonl"
        write_db(fit_config(seed, scale.fit_transactions), data)
        args.append(["--data", str(data), "--out", str(run.dir / f"model-{i}.json"),
                     "--heldout", str(heldout), "--min-support", str(FIT_MIN_SUPPORT)])
    artifact = run.dir / "model-0.json"

    # The datasets take turns, so fits[i::FIT_DATASETS] are dataset i's.
    fits = []
    started = time.perf_counter()
    while len(fits) < FIT_DATASETS or time.perf_counter() - started < run.seconds:
        with run.spans.span("fit.process"):
            fits.append(fit_child(run, *args[len(fits) % FIT_DATASETS]))
    per_data = [iqm([f["fit_s"] for f in fits[i::FIT_DATASETS]])
                for i in range(FIT_DATASETS)]
    fit_s = statistics.fmean(per_data)
    setup = [f["setup_s"] for f in fits]
    rss = [f["peak_rss_mb"] for f in fits]
    rep = run.report
    rep.metric("setup_s", median(setup), "s")
    rep.metric("latency_ms", fit_s * 1e3, "ms")
    rep.metric("rate_per_s", scale.fit_transactions / fit_s, "1/s")
    rep.metric("rss_mb", median(rss), "MB")
    print(f"fit_20k: {FIT_DATASETS} datasets of {scale.fit_transactions} transactions, "
          f"{[f['n_rules'] for f in fits[:FIT_DATASETS]]} rules kept")
    rep.line("setup_s", median(setup), "s", len(setup), "fresh interpreter -> fit-path imports done")
    rep.line("fit_s", fit_s, "s", len(fits),
             "mean over datasets of each one's interquartile mean: "
             + ", ".join(f"{t:.3f}" for t in per_data))
    rep.line("fit_peak_rss_mb", median(rss), "MB", len(rss), "peak RSS of a fresh fit process")

    if not run.trace:
        return
    found = staged_fit_layers(run, args[0], per_data[0])
    found["import.serve_s"] = layers.import_serve_s(scale.repeats)
    baskets = distinct_baskets(run.seed, 300, scale.heldout)
    found.update(
        layers.serving_layers(artifact, baskets, baskets[:PLAN_BASKETS],
                              run.spans, scale.repeats)
    )
    # No daemon serves in the timed fit workload; a short open-loop probe
    # at 200 req/s on the fitted artifact gives its daemon-layer readings.
    requests = [post("/recommend", encode({"basket": basket_json(b)}))
                for b in baskets]
    expected = [
        {"item": r.item_id, "promo": r.promo_code}
        for r in load_model(artifact).recommend_many(baskets)
    ]
    daemon = ServeProcess(artifact, run.dir / "serve.log", TRACED_DAEMON)
    try:
        daemon.start(requests[0])
        run.report.attempted += 1
        with Driver(daemon.port, CONNECTIONS) as driver:
            exchanges = driver.open_loop(requests[1:], 200, first_id=1)
        stats = daemon.stats()
    finally:
        daemon.stop()
    record_exchanges(run, "http.recommend", exchanges)
    failures = check_singles(run, "at 200 req/s", exchanges, expected[1:])
    step = step_stats(200, exchanges, failures, window(exchanges))
    found["client.lag_p99_ms"] = step["lag_p99_ms"]
    found.update(layers.daemon_layers([stats]))
    return_layers(run, found)


# ---------------------------------------------------------------------------
# online_unpruned
# ---------------------------------------------------------------------------
def check_singles(
    run: Run, what: str, exchanges: Sequence[Exchange], expected: Sequence[Any]
) -> int:
    """Count ``/recommend`` failures; ``expected[ex.kind]`` is each answer."""
    errors = sum(ex.status != 200 for ex in exchanges)
    wrong = sum(
        ex.status == 200 and not check_json(ex.body, expected[ex.kind])
        for ex in exchanges
    )
    run.report.attempted += len(exchanges)
    run.report.fail(errors, f"{errors} requests {what} got no 200")
    run.report.fail(wrong, f"{wrong} responses {what} differ from the library")
    return errors + wrong


def step_stats(
    rate: int, exchanges: Sequence[Exchange], failures: int, window_s: float
) -> dict[str, Any]:
    """Latency and generator lag of one open-loop rate step.

    ``window_s`` is how long the step's traffic ran, which for a step sent
    in slices is the sum of the slices' windows.
    """
    answered = [ex.latency * 1e3 for ex in exchanges if ex.status == 200]
    lags = [ex.lag * 1e3 for ex in exchanges]
    lag_p90 = percentile(lags, 90)
    return {
        "rate": rate,
        "n": len(exchanges),
        "completed_per_s": len(answered) / window_s,
        "errors": failures,
        "iqm_ms": iqm(answered) if answered else math.inf,
        "p50_ms": percentile(answered, 50) if answered else math.inf,
        "p90_ms": percentile(answered, 90) if answered else math.inf,
        "p99_ms": percentile(answered, 99) if answered else math.inf,
        "lag_p90_ms": lag_p90,
        "lag_p99_ms": percentile(lags, 99),
        "valid": lag_p90 <= LAG_LIMIT_MS,
    }


def window(exchanges: Sequence[Exchange]) -> float:
    """Seconds from the first request's due time to the last response."""
    return max(ex.done for ex in exchanges) - min(ex.due for ex in exchanges)


def max_rate(steps: Sequence[dict[str, Any]]) -> float:
    """Highest ladder rate meeting the p90 limit, log-interpolated upward.

    A step passes when its generator kept up (valid), it had no errors
    and its p90 is within ``LATENCY_LIMIT_MS``.  From the highest passing
    step, the crossing toward the next (failing) step is interpolated on
    log p90, so the reading moves continuously instead of jumping a
    whole ladder step.  With no passing step the lowest rate is scaled
    down by how far its p90 overshoots the limit.
    """
    def passes(step: dict[str, Any]) -> bool:
        return step["valid"] and not step["errors"] and step["p90_ms"] <= LATENCY_LIMIT_MS

    passing = [i for i, step in enumerate(steps) if passes(step)]
    if not passing:
        first = steps[0]
        return first["rate"] * LATENCY_LIMIT_MS / max(first["p90_ms"], LATENCY_LIMIT_MS)
    lower = steps[passing[-1]]
    best = float(lower["rate"])
    if passing[-1] + 1 < len(steps):
        upper = steps[passing[-1] + 1]
        if upper["valid"] and math.isfinite(upper["p90_ms"]):
            low, high = math.log(lower["p90_ms"]), math.log(upper["p90_ms"])
            share = (math.log(LATENCY_LIMIT_MS) - low) / (high - low) if high > low else 0.0
            best += share * (upper["rate"] - lower["rate"])
    return best


class Lane:
    """A daemon of its own that serves requests ``lo .. hi-1`` in slices.

    Each slice takes the next unused requests, so every basket a lane
    sends is distinct and misses the memo.  Answers are checked per slice;
    exchange kinds are made absolute indices into ``requests``.
    """

    def __init__(
        self, run: Run, artifact: Path, requests: Sequence[bytes],
        expected: Sequence[Any], lo: int, hi: int, extra: tuple[str, ...] = (),
    ) -> None:
        self.run, self.requests, self.expected = run, requests, expected
        self.next, self.hi = lo, hi
        self.daemon = ServeProcess(artifact, run.dir / "serve.log", extra)
        self.driver: Driver | None = None
        self.exchanges: list[Exchange] = []
        self.window_s = 0.0
        self.failures = 0

    def start(self) -> float:
        with self.run.spans.span("serve.startup"):
            setup = self.daemon.start(self.requests[0])
        self.run.report.attempted += 1
        self.driver = Driver(self.daemon.port, CONNECTIONS)
        return setup

    def open_slice(self, rate: int, count: int) -> None:
        """Send the next ``count`` requests at ``rate`` on a fixed schedule."""
        assert self.driver is not None
        lo = self.next
        self.next = min(lo + count, self.hi)
        with self.run.spans.span(f"ladder.r{rate}"):
            done = self.driver.open_loop(self.requests[lo:self.next], rate, first_id=lo)
        for ex in done:
            ex.kind += lo
        self._keep(done, f"at {rate} req/s")

    def closed_slice(self, seconds: float) -> None:
        """Keep both connections busy for ``seconds``, or until requests run out."""
        assert self.driver is not None

        def take(_: int) -> tuple[int, bytes] | None:
            if self.next >= self.hi:
                return None
            self.next += 1
            return self.next - 1, self.requests[self.next - 1]

        with self.run.spans.span("capacity"):
            done, _ = self.driver.closed_loop([take] * CONNECTIONS, seconds,
                                              first_id=self.next)
        self._keep(done, "at capacity")

    def _keep(self, done: list[Exchange], what: str) -> None:
        if done:
            record_exchanges(self.run, "http.recommend", done)
            self.failures += check_singles(self.run, what, done, self.expected)
            self.exchanges += done
            self.window_s += window(done)

    def step(self, rate: int) -> dict[str, Any]:
        return step_stats(rate, self.exchanges, self.failures, self.window_s)

    def stop(self) -> None:
        if self.driver is not None:
            self.driver.close()
        self.daemon.stop()


def serve_online(
    run: Run, artifact: Path, requests: Sequence[bytes], expected: Sequence[Any],
    unit: int, capacity_s: float, extra: tuple[str, ...] = (),
) -> dict[str, Any]:
    """The rate ladder beside the capacity phase, on memo-cold daemons.

    The lowest rate and the capacity phase each get a daemon of their own
    for the whole run, and take turns in slices between the other ladder
    steps, so both gated readings span the run rather than one stretch of
    it.  Every other rate step starts ``serve`` anew, so it meets a
    memo-cold daemon after the same amount of earlier traffic.  Every
    start-up is a ``setup_s`` sample.
    """
    (low, low_share), *upper = run.scale.ladder
    rounds = len(upper) + 1
    lo = 1 + low_share * unit
    bounds = [lo]
    for _, share in upper:
        bounds.append(bounds[-1] + share * unit)
    base = Lane(run, artifact, requests, expected, 1, lo, extra)
    capacity = Lane(run, artifact, requests, expected, bounds[-1], len(requests), extra)
    steps, setups, stats = [], [], []
    try:
        setups += [base.start(), capacity.start()]
        for i in range(rounds):
            base.open_slice(low, (low_share * unit - 1) // rounds + 1)
            capacity.closed_slice(capacity_s / rounds)
            if i == len(upper):
                break
            rate = upper[i][0]
            lane = Lane(run, artifact, requests, expected, bounds[i], bounds[i + 1], extra)
            try:
                setups.append(lane.start())
                lane.open_slice(rate, bounds[i + 1] - bounds[i])
                if extra:
                    stats.append(lane.daemon.stats())
            finally:
                lane.stop()
            steps.append(lane.step(rate))
        rss = base.daemon.rss_mb()
        if extra:
            stats += [base.daemon.stats(), capacity.daemon.stats()]
    finally:
        base.stop()
        capacity.stop()
    return {
        "steps": [base.step(low), *steps],
        "capacity_rps": (len(capacity.exchanges) - capacity.failures) / capacity.window_s,
        "n_capacity": len(capacity.exchanges),
        "setups": setups,
        "rss_mb": rss,
        "stats": stats,
    }


def online_unpruned(run: Run) -> None:
    scale = run.scale
    artifact, world_fit, fit_args = fit_world(run, initial=True)
    capacity_s = run.seconds * CAPACITY_SHARE
    unit = max(scale.min_step,
               int((run.seconds - capacity_s)
                   / sum(share / rate for rate, share in scale.ladder)))
    total = sum(share for _, share in scale.ladder) * unit
    baskets = distinct_baskets(
        run.seed, WORLD["n_items"],
        1 + total + int(capacity_s * scale.capacity_baskets_per_s))
    requests = [post("/recommend", encode({"basket": basket_json(b)})) for b in baskets]
    expected = [
        {"item": r.item_id, "promo": r.promo_code}
        for r in load_model(artifact).recommend_many(baskets)
    ]
    # Memo-cold by construction: no two requests share a basket key.
    if len({basket_key(b) for b in baskets}) != len(baskets):
        run.report.fail(1, "online baskets are not distinct by basket_key")

    out = serve_online(run, artifact, requests, expected, unit, capacity_s)
    steps, setups, rss = out["steps"], out["setups"], out["rss_mb"]
    capacity = out["capacity_rps"]
    by_rate = {s["rate"]: s for s in steps}
    first = steps[0]
    rep = run.report
    if not first["valid"]:
        # The box, not the program, fell behind: say so, fail nothing.
        print(f"WARNING: generator lag p90 {first['lag_p90_ms']:.2f} ms at "
              f"{first['rate']} req/s exceeds {LAG_LIMIT_MS} ms; its latency "
              "is reported but overstates the server's", file=sys.stderr)
    rep.metric("setup_s", median(setups), "s")
    rep.metric("latency_ms", first["iqm_ms"], "ms")
    rep.metric("rate_per_s", capacity, "1/s")
    rep.metric("rss_mb", rss, "MB")
    print(f"online_unpruned: {world_fit['n_rules']} rules, open loop, "
          f"{CONNECTIONS} connections, {len(baskets) - 1} distinct baskets")
    rep.line("setup_s", median(setups), "s", len(setups), "spawn serve -> first 200 /recommend")
    for rate in (200, 800):
        step = by_rate.get(rate)
        if step is None:
            continue
        if not step["valid"]:
            print(f"  rec_*_ms.r{rate}: invalid, generator lag p90 {step['lag_p90_ms']:.3f} ms")
            continue
        if rate == first["rate"]:
            rep.line(f"rec_iqm_ms.r{rate}", step["iqm_ms"], "ms", step["n"],
                     "interquartile mean, from scheduled send")
        rep.line(f"rec_p50_ms.r{rate}", step["p50_ms"], "ms", step["n"], "from scheduled send")
        rep.line(f"rec_p90_ms.r{rate}", step["p90_ms"], "ms", step["n"], "")
        rep.line(f"rec_p99_ms.r{rate}", step["p99_ms"], "ms", step["n"], "")
    rep.line("max_rate_rps", max_rate(steps), "1/s", len(steps),
             f"p90 <= {LATENCY_LIMIT_MS} ms, log-interpolated")
    rep.line("capacity_rps", capacity, "1/s", out["n_capacity"],
             f"closed loop, {CONNECTIONS} connections, {capacity_s:.1f} s")
    rep.line("serve_rss_mb", rss, "MB", 1, f"the {first['rate']} req/s daemon at the end")
    for step in steps:
        print(f"    r{step['rate']:<5} p50 {step['p50_ms']:9.3f} ms  p90 {step['p90_ms']:9.3f} ms"
              f"  p99 {step['p99_ms']:9.3f} ms"
              f"  lag p90 {step['lag_p90_ms']:6.3f} p99 {step['lag_p99_ms']:6.3f} ms"
              f"  done {step['completed_per_s']:7.1f}/s"
              f"  n={step['n']}"
              f"{'' if step['valid'] else '  INVALID'}")

    if not run.trace:
        return
    found = staged_fit_layers(run, fit_args, world_fit["fit_s"])
    found["import.serve_s"] = layers.import_serve_s(scale.repeats)
    plan_pool = baskets[1:1 + PLAN_BASKETS]
    found.update(layers.serving_layers(artifact, baskets[1:], plan_pool,
                                       run.spans, scale.repeats))
    traced = serve_online(run, artifact, requests, expected, unit, capacity_s,
                          TRACED_DAEMON)
    found.update(layers.daemon_layers(traced["stats"]))
    found["client.lag_p99_ms"] = max(s["lag_p99_ms"] for s in traced["steps"])
    found["trace.overhead_ratio"] = traced["steps"][0]["iqm_ms"] / first["iqm_ms"] - 1.0
    return_layers(run, found)


# ---------------------------------------------------------------------------
# batch_pruned
# ---------------------------------------------------------------------------
def batch_payloads(recommender, pool) -> tuple[list[bytes], list[Any], int]:
    """Distinct requests and their library answers.

    Kinds ``0 .. 2S-1`` are ``/recommend_batch`` slices (even plain, odd
    ``k=3``); kinds from ``2S`` on are ``/plan`` slices.  Returns the
    requests, the expected bodies and ``2S``.
    """
    requests, expected = [], []
    for lo in range(0, len(pool) - BATCH_BASKETS + 1, BATCH_BASKETS):
        chunk = pool[lo:lo + BATCH_BASKETS]
        wire = [basket_json(b) for b in chunk]
        requests.append(post("/recommend_batch", encode({"baskets": wire})))
        expected.append({"recommendations": [
            {"item": r.item_id, "promo": r.promo_code}
            for r in recommender.recommend_many(chunk)]})
        requests.append(post("/recommend_batch", encode({"baskets": wire, "k": TOP_K})))
        expected.append({"k": TOP_K, "offers": [
            [{"item": r.item_id, "promo": r.promo_code} for r in offers]
            for offers in recommender.recommend_top_k_many(chunk, TOP_K)]})
    n_batch = len(requests)
    for lo in range(0, len(pool) - PLAN_BASKETS + 1, PLAN_BASKETS):
        chunk = pool[lo:lo + PLAN_BASKETS]
        requests.append(post("/plan", encode({
            "baskets": [basket_json(b) for b in chunk], "max_offers": MAX_OFFERS})))
        plan = plan_campaign(recommender, chunk, max_offers=MAX_OFFERS)
        expected.append(json.loads(json.dumps(plan.to_dict())))
    return requests, expected, n_batch


def serve_closed(
    run: Run, artifact: Path, probe: bytes, requests: Sequence[bytes],
    expected: Sequence[Any], n_batch: int, extra: tuple[str, ...] = (),
) -> dict[str, Any]:
    """Warm the memo, then let three closed-loop phases take turns.

    ``batches``: both connections send ``/recommend_batch`` back to back,
    taking turns through the batch requests.  ``plans``: connection 2
    alone sends ``/plan``, so nothing races a plan.  ``mix``: connection 1
    sends batches while connection 2 sends plans, and each batch waits
    for the plan running ahead of it.  The phases take turns in
    ``BATCH_SLICES`` rounds, so every reading spans the whole run.
    """
    daemon, setups = start_daemon(run, artifact, probe, extra)
    batches, plans = iter(range(1 << 62)), iter(range(1 << 62))

    def next_batch(_: int) -> tuple[int, bytes]:
        k = next(batches) % n_batch
        return k, requests[k]

    def next_plan(_: int) -> tuple[int, bytes]:
        k = n_batch + next(plans) % (len(requests) - n_batch)
        return k, requests[k]

    streams = {
        "batches": [next_batch] * CONNECTIONS,
        "plans": [lambda _: None, next_plan],
        "mix": [next_batch, next_plan],
    }
    phases: dict[str, list[Exchange]] = {name: [] for name in streams}
    lag: list[float] = []
    busy_s = 0.0
    try:
        with Driver(daemon.port, CONNECTIONS) as driver:
            with run.spans.span("warm"):
                warm = driver.open_loop(requests, 1e6)
            sent = len(warm)
            for _ in range(BATCH_SLICES):
                for name, share in PHASE_SHARES.items():
                    with run.spans.span(name):
                        done, turnaround = driver.closed_loop(
                            streams[name], run.seconds * share / BATCH_SLICES,
                            first_id=sent)
                    sent += len(done)
                    phases[name] += done
                    lag += turnaround
                    if name == "batches":
                        busy_s += window(done)
        rss = daemon.rss_mb()
        stats = daemon.stats() if extra else None
    finally:
        daemon.stop()
    served = [ex for done in phases.values() for ex in done]
    record_exchanges(run, "http.batch_or_plan", served)
    verified: dict[int, set[bytes]] = {}
    errors = wrong = 0
    for ex in [*warm, *served]:
        if ex.status != 200:
            errors += 1
        elif ex.body not in verified.setdefault(ex.kind, set()):
            if check_json(ex.body, expected[ex.kind]):
                verified[ex.kind].add(ex.body)
            else:
                wrong += 1
    run.report.attempted += len(warm) + len(served)
    run.report.fail(errors, f"{errors} batch/plan requests got no 200")
    run.report.fail(wrong, f"{wrong} batch/plan responses differ from the library")
    return {
        "batch_ms": [ex.latency * 1e3 for ex in phases["batches"]],
        "batch_per_s": len(phases["batches"]) * BATCH_BASKETS / busy_s,
        "plan_ms": [ex.latency * 1e3 for ex in phases["plans"]],
        "mix_batch_ms": [ex.latency * 1e3 for ex in phases["mix"] if ex.kind < n_batch],
        "mix_plan_ms": [ex.latency * 1e3 for ex in phases["mix"] if ex.kind >= n_batch],
        "turnaround_s": lag,
        "setups": setups,
        "rss_mb": rss,
        "stats": stats,
    }


def batch_pruned(run: Run) -> None:
    scale = run.scale
    artifact, world_fit, fit_args = fit_world(run, initial=False)
    baskets = distinct_baskets(run.seed, WORLD["n_items"], 1 + scale.pool)
    probe = post("/recommend", encode({"basket": basket_json(baskets[0])}))
    pool = baskets[1:]
    requests, expected, n_batch = batch_payloads(load_model(artifact), pool)

    out = serve_closed(run, artifact, probe, requests, expected, n_batch)
    batch, plans, mix_batch = out["batch_ms"], out["plan_ms"], out["mix_batch_ms"]
    setups = out["setups"]
    rep = run.report
    rep.metric("setup_s", median(setups), "s")
    rep.metric("latency_ms", iqm(plans), "ms")
    rep.metric("rate_per_s", out["batch_per_s"], "1/s")
    rep.metric("rss_mb", out["rss_mb"], "MB")
    print(f"batch_pruned: {world_fit['n_rules']} rules, closed loop, "
          f"{CONNECTIONS} connections, pool of {len(pool)} distinct baskets")
    rep.line("setup_s", median(setups), "s", len(setups), "spawn serve -> first 200 /recommend")
    print(f"  batches phase: {BATCH_BASKETS}-basket /recommend_batch, plain and "
          f"k={TOP_K}, on both connections")
    rep.line("batch_baskets_per_s", out["batch_per_s"], "1/s", len(batch), "")
    rep.line("batch_p50_ms", percentile(batch, 50), "ms", len(batch), "")
    rep.line("batch_p99_ms", percentile(batch, 99), "ms", len(batch), "")
    print(f"  plans phase: /plan over {PLAN_BASKETS} baskets, max_offers={MAX_OFFERS}, "
          "on connection 2 alone")
    rep.line("plan_iqm_ms", iqm(plans), "ms", len(plans), "interquartile mean")
    rep.line("plan_p50_ms", percentile(plans, 50), "ms", len(plans), "")
    rep.line("plan_p95_ms", percentile(plans, 95), "ms", len(plans), "")
    print("  mix phase: batches on connection 1 beside plans on connection 2")
    rep.line("batch_p50_ms", percentile(mix_batch, 50), "ms", len(mix_batch),
             "stalled by the planner")
    rep.line("batch_p99_ms", percentile(mix_batch, 99), "ms", len(mix_batch),
             "stalled by the planner")
    rep.line("plan_p50_ms", percentile(out["mix_plan_ms"], 50), "ms",
             len(out["mix_plan_ms"]), "beside batches")
    rep.line("serve_rss_mb", out["rss_mb"], "MB", 1, "daemon RSS at end")

    if not run.trace:
        return
    found = staged_fit_layers(run, fit_args, world_fit["fit_s"])
    found["import.serve_s"] = layers.import_serve_s(scale.repeats)
    found.update(layers.serving_layers(artifact, pool, pool[:PLAN_BASKETS],
                                       run.spans, scale.repeats))
    traced = serve_closed(run, artifact, probe, requests, expected, n_batch,
                          TRACED_DAEMON)
    found.update(layers.daemon_layers([traced["stats"]]))
    found["client.lag_p99_ms"] = percentile(traced["turnaround_s"], 99) * 1e3
    found["trace.overhead_ratio"] = iqm(traced["plan_ms"]) / iqm(plans) - 1.0
    return_layers(run, found)


# ---------------------------------------------------------------------------
def unit_of(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us"),
                         ("_bytes", "bytes"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def return_layers(run: Run, found: dict[str, float]) -> None:
    """Replace the end-to-end metrics with the per-layer ones."""
    run.report.metrics.clear()
    for name in sorted(found):
        run.report.metric(name, found[name], unit_of(name))
        print(f"  {name:<40} {found[name]:>14.4f} {unit_of(name)}")


WORKLOADS = {
    "fit_20k": fit_20k,
    "online_unpruned": online_unpruned,
    "batch_pruned": batch_pruned,
}
