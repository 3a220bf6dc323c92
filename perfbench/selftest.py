"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py check         # the output check accepts real
                                                # responses, rejects two corruptions
    python3 perfbench/selftest.py sensitivity   # a beam_decode_batch busy-wait moves
                                                # neural-cold past its bound only

``check`` boots ``python -m repro.service`` from a freshly trained
neural-cold checkpoint, narrates plans in modes rule, neural and auto, and
requires every response to pass ``check.Reference.mismatch``; then it
corrupts one response in each of two ways — a neural step replaced by
another act's candidate, a rule step with one token edited — and requires
the check to reject each.

``sensitivity`` alternates plain runs with runs whose serving processes
busy-wait after every ``QEP2Seq.beam_decode_batch`` call (installed by
``hook/lantern_probe.py``, so no program file changes).  The wait is a
factor times the CPU time of the call.  A traced neural-cold run first
measures the share of serving CPU spent in the call
(``seq2seq.beam_decode_cpu_share``); the factor is ``INJECTED_SHARE`` over
that share, so the wait adds about ``INJECTED_SHARE`` to neural-cold's CPU
per plan.  Plain and slowed runs alternate in ``PAIRS`` back-to-back
pairs.  The test passes when the median per-pair change of neural-cold's
``cpu_ms_per_plan`` is past its bound and that of every end-to-end metric
of rule-mixed, which never decodes, stays within its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

INJECTED_SPAN = "seq2seq.beam_decode_batch"
#: the share of neural-cold's CPU per plan the busy-wait adds
INJECTED_SHARE = 0.2
#: plain/slowed run pairs per workload, each pair on its own seed
PAIRS = 10
CHECK_SEED = 7
CALIBRATION_SEED = 99


def _check_selftest(seed: int = CHECK_SEED) -> bool:
    sys.path.insert(0, str(SRC))
    from check import Reference
    from workloads import WORKLOADS, boot, build_inputs, train_checkpoint

    workload = WORKLOADS["neural-cold"]
    run_dir = ROOT / ".perfbench-run" / f"selftest-{uuid.uuid4().hex[:8]}"
    run_dir.mkdir(parents=True)
    checkpoint = run_dir / "checkpoint"
    payloads, _ = build_inputs(workload, seed)
    payloads = payloads[:36]
    train_checkpoint(workload, checkpoint)
    env = {key: value for key, value in os.environ.items() if not key.startswith("PERFBENCH_")}
    env["PYTHONPATH"] = str(SRC)
    deployment = boot(workload, checkpoint, env, run_dir / "serve.log", run_dir.name)
    responses = []
    try:
        deployment.wait_ready()
        # each payload twice per mode, so auto crosses its habituation
        # threshold and neural wording cycles to a second beam candidate
        for mode in ("rule", "neural", "auto"):
            for index in list(range(len(payloads))) * 2:
                status, body = deployment.client.request_json(
                    "POST", "/narrate", {"plan": payloads[index], "mode": mode}
                )
                responses.append((index, mode, status, body))
    finally:
        survivors = deployment.stop()
    reference = Reference(checkpoint)
    ok = not survivors
    rejected = [
        (index, mode, reference.mismatch(index, payloads[index], mode, body))
        for index, mode, status, body in responses
        if status != 200 or reference.mismatch(index, payloads[index], mode, body)
    ]
    print(f"unmodified: {len(responses) - len(rejected)}/{len(responses)} responses pass")
    ok &= not rejected

    # corruption 1: a neural step replaced by another act's candidate
    def foreign_swaps():
        for index, mode, status, body in responses:
            if mode != "neural":
                continue
            for position in range(len(body["narration"]["steps"])):
                own = reference.admissible(index, payloads[index], position)
                for other, payload in enumerate(payloads):
                    for other_position in range(len(reference.rule_steps(other, payload)[0])):
                        for text in sorted(reference.admissible(other, payload, other_position) - own):
                            yield index, json.loads(json.dumps(body)), position, text

    swapped = next(foreign_swaps(), None)
    if swapped is None:
        print("no neural step found to corrupt")
        return False
    index, body, position, text = swapped
    body["narration"]["steps"][position]["text"] = text
    why = reference.mismatch(index, payloads[index], "neural", body)
    print(f"neural step swapped for another act's candidate: {'rejected: ' + why if why else 'ACCEPTED'}")
    ok &= why is not None

    # corruption 2: a rule step edited by one token
    index, mode, _, body = next(r for r in responses if r[1] == "rule")
    body = json.loads(json.dumps(body))
    step = body["narration"]["steps"][0]
    tokens = step["text"].split(" ")
    tokens[len(tokens) // 2] = tokens[len(tokens) // 2] + "s"
    step["text"] = " ".join(tokens)
    why = reference.mismatch(index, payloads[index], "rule", body)
    print(f"rule step edited by one token: {'rejected: ' + why if why else 'ACCEPTED'}")
    ok &= why is not None
    shutil.rmtree(run_dir, ignore_errors=True)
    return ok


def _sensitivity_selftest() -> bool:
    from spread import run_once

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {metric["name"]: (metric["bound"], metric["better"]) for metric in spec["end_to_end"]}
    traced = run_once("neural-cold", CALIBRATION_SEED, trace=1)
    share = traced["metrics"]["seq2seq.beam_decode_cpu_share"]["value"]
    factor = INJECTED_SHARE / share
    print(f"neural-cold: {INJECTED_SPAN} takes {share:.3f} of serving CPU; "
          f"busy-wait x{factor:.3f} of its CPU adds {INJECTED_SHARE}")
    inject = ("--inject", f"{INJECTED_SPAN}:{factor}")
    ok = traced["correct"]
    cpu_shift = {}
    for workload in ("neural-cold", "rule-mixed"):
        pairs = []
        for pair in range(PAIRS):
            # alternate which arm runs first, each pair on a fresh seed
            arms = [(), inject] if pair % 2 == 0 else [inject, ()]
            results = {extra: run_once(workload, 100 + pair, extra=extra) for extra in arms}
            pairs.append((results[()], results[inject]))
            ok &= all(result["correct"] for result in results.values())
        # a pair runs back to back, so the median of per-pair changes
        # cancels host drift slower than one pair
        print(f"{workload}: plain vs busy-wait, median change over {PAIRS} pairs")
        for name, (bound, better) in bounds.items():
            changes = []
            for plain, slowed in pairs:
                base, moved = plain["metrics"][name]["value"], slowed["metrics"][name]["value"]
                changes.append((moved - base) / base if better == "lower" else (base - moved) / base)
            change = statistics.median(changes)
            beyond = change > bound
            print(f"  {name:24s} worse by {change:+.3f} (bound {bound}; pairs "
                  f"{min(changes):+.3f} .. {max(changes):+.3f}){'  BEYOND BOUND' if beyond else ''}")
            if workload == "neural-cold" and name == "cpu_ms_per_plan":
                ok &= beyond
            if workload == "rule-mixed" and name != "setup_s":
                ok &= not beyond
            if name == "cpu_ms_per_plan":
                cpu_shift[workload] = change
    bound = bounds["cpu_ms_per_plan"][0]
    print(f"cpu_ms_per_plan: neural-cold {cpu_shift['neural-cold']:+.3f} "
          f"(margin past bound {cpu_shift['neural-cold'] - bound:+.3f}), "
          f"rule-mixed control {cpu_shift['rule-mixed']:+.3f}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("test", choices=("check", "sensitivity"))
    args = parser.parse_args()
    ok = _check_selftest() if args.test == "check" else _sensitivity_selftest()
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
