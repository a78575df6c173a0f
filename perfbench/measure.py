"""NetBooster end-to-end benchmark: train -> deploy -> serve, untraced or traced.

Started by ``perfbench/run.py``, which takes the same arguments and waits
for every process this one leaves behind; run that, from the repository
root::

    python3 perfbench/run.py --workload boost-pipeline --seed 1 --seconds 15 --trace 0

Every workload runs the paper's flow on ``mobilenetv2-tiny`` at 32x32
(:mod:`pipeline`: expand, PLT-train, contract, quantize, compile, artifact
save/load, batch-64 inference) and then serves the resulting int8 artifact
from a 1-replica fleet (:mod:`fleetload`) for ``--seconds`` seconds of
traffic; the workload picks the traffic shape.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` records spans around
every layer call, writes them to ``.perfbench/`` and reports the per-layer
metrics.  Inputs (corpus, model initialisation, request pool and request
order) come from ``--seed``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric with its unit and every check's verdict.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
TRAFFIC = {"boost-pipeline": "trickle", "serve-steady": "steady", "serve-burst": "burst"}


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def _serve(shape: str, seed: int, seconds: float, pipe, tracer, outcome) -> dict:
    """Serve the pipeline's artifact under ``shape`` traffic; returns metrics."""
    import numpy as np

    import fleetload
    from repro.serve import FleetClient

    artifact, pool = str(pipe.artifact), pipe.val
    expected = fleetload.reference_outputs(artifact, pool)
    rng = np.random.default_rng([seed, 1])
    # A full collection over everything the pipeline left alive would stall
    # the submitting thread mid-schedule; freeze it out of the collector.
    gc.collect()
    gc.freeze()
    fleet = fleetload.FleetProcess(artifact, tracer.enabled, window_s=seconds)
    try:
        address, setup_s = fleet.wait_ready()
        client = FleetClient(address, timeout=fleetload.REPLY_TIMEOUT_S, retries=0)
        try:
            fleetload.warm_up(client, pool)
            traffic = fleetload.drive(client, shape, pool, expected, seconds, rng)
            wire = client.server_stats()
        finally:
            client.close()
        final, rows = fleet.drain()
    finally:
        fleet.stop()

    latency = traffic.latency_ms()
    wrong = int((~traffic.ok).sum())
    outcome.ops(len(traffic.ok), wrong)
    outcome.check("serve.replies_correct", wrong == 0,
                  f"{wrong} of {len(traffic.ok)} replies failed or differ from the in-process executor")
    outcome.check("serve.lost_zero", wire["lost"] == 0 and final["lost"] == 0,
                  f"STATS lost {wire['lost']}, after drain {final['lost']}")
    if len(latency) == 0:
        raise RuntimeError("no request succeeded")
    p50 = _percentile(latency, 50)
    metrics = {
        "fleet_setup_s": statistics.median(setup_s),
        "p50_ms": p50,
        "p90_ms": _percentile(latency, 90),
        "p99_ms": _percentile(latency, 99),
        "goodput_rps": int((latency <= fleetload.LIMIT_MS).sum()) / traffic.elapsed,
        "serve.gen_lag_ms": _percentile((traffic.sent - traffic.due) * 1e3, 99),
        "requests": len(traffic.ok),
    }
    if not tracer.enabled:
        return metrics

    for i in np.flatnonzero(traffic.ok):
        root = tracer.add("serve.request", traffic.due[i], traffic.done[i], rid=int(i))
        tracer.add("serve.client_submit", traffic.sent[i], traffic.submitted[i], parent=root, rid=int(i))
    rows = rows[rows[:, 1] >= traffic.due[0]]
    for _, start, end in rows:
        tracer.add("runtime.forward", start, end)
    forward_p50 = _percentile((rows[:, 2] - rows[:, 1]) * 1e3, 50)
    frontdoor_p50 = wire["latency_ms_p50"]
    metrics.update({
        "serve.client_submit_ms": _percentile((traffic.submitted - traffic.sent) * 1e3, 50),
        "serve.frontdoor_p50_ms": frontdoor_p50,
        "serve.frontdoor_p99_ms": wire["latency_ms_p99"],
        "serve.client_side_ms": p50 - frontdoor_p50,
        "runtime.forward_ms": forward_p50,
        "serve.batch_size_mean": float(rows[:, 0].mean()),
        "serve.full_batch_share": float((rows[:, 0] == fleetload.FLEET_POLICY["max_batch"]).mean()),
        "serve.path_overhead_ms": frontdoor_p50 - forward_p50,
        "serve.shed": final["shed"],
        "serve.requeued": final["requeued"],
        "serve.deadline_expired": final["deadline_expired"],
        "serve.restarts": final["restarts"],
        "serve.lost": final["lost"],
        "serve.replica_cold_start_ms": wire["cold_start_ms_mean"],
        # The client records identically in both modes; tracing adds only the
        # replica's per-batch log row, shared by the requests of the batch.
        "trace.request_overhead_ms": fleetload.log_cost_ms() / float(rows[:, 0].mean()),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRAFFIC))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="seconds of serving traffic")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {source}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(source))

    from pipeline import Outcome, Pipeline, make_corpus
    from spans import Tracer

    tracer = Tracer(enabled=args.trace == 1)
    outcome = Outcome()
    workdir = STATE / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        pipe = Pipeline(args.seed, make_corpus(args.seed), tracer, workdir, outcome)
        metrics = pipe.run()
        with tracer.span("bench.serve"):
            served = _serve(TRAFFIC[args.workload], args.seed, args.seconds, pipe, tracer, outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics["setup_s"] += served.pop("fleet_setup_s")
    requests = served.pop("requests")
    metrics.update(served)
    if tracer.enabled:
        for layer, value in tracer.layer_self_ms().items():
            metrics[f"self_ms.{layer}"] = value
        tracer.write(STATE / f"trace-{args.workload}-seed{args.seed}.jsonl")
    metrics["fail_ratio"] = outcome.failed / outcome.attempted

    wanted = spec["per_layer" if tracer.enabled else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    correct = all(ok for ok, _ in outcome.checks.values())
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s of traffic, "
          f"{requests} requests, trace {args.trace}")
    for name, (ok, detail) in outcome.checks.items():
        print(f"  check {name:34s} {'PASS' if ok else 'FAIL'}  {detail}")
    print(f"  {'fail_ratio':40s} {metrics['fail_ratio']:.6g} ({outcome.failed}/{outcome.attempted})")
    if not tracer.enabled:  # per-layer values this run measures anyway
        for m in spec["per_layer"]:
            if m["name"] in metrics and m["name"] != "fail_ratio":
                print(f"  {m['name']:40s} {metrics[m['name']]:.6g} {m['unit']} (per-layer)")
    report = {}
    for m in wanted:
        value = float(metrics[m["name"]])
        report[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:40s} {value:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
