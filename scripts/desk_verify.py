#!/usr/bin/env python3
"""Desk-scale verification sweep.

Runs the shipped corpus plus a batch of generated skeletal inequalities
through the full pipeline and checks, on every frame up to the world cap,
that input and pure output define the same frame class, and that the
translation is equivalent to the output on every model (frame and
nominal placement) up to the world cap.  A corpus entry that names a frame
class is also checked against that class's mask, computed from the edge
masks without the evaluator.  Prints one line per case, then the sweep's
total wall time.

Usage: python scripts/desk_verify.py [--generated N] [--seed S] [--max-worlds W]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hybridcorr.alba import run
from hybridcorr.corpus import CORPUS
from hybridcorr.generate import GeneratorConfig, SkeletalGenerator
from hybridcorr.semantics import EnumerationCapError, EnumerationLimits, frame_class_mask
from hybridcorr.syntax import fmt, parse_input
from hybridcorr.translate import verify_correspondence


def check_case(name, ineq, result, limits, frame_class=None):
    t0 = time.monotonic()
    agreement = verify_correspondence(ineq, result.quasis, limits)
    if not agreement.ok:
        print(f"FAIL {name}: disagreement on {agreement.counterexamples[0]}")
        return False
    for report in agreement.translations:
        if not report.ok:
            print(f"FAIL {name}: translation mismatch {report.mismatches[0]}")
            return False
    models = sum(report.checked for report in agreement.translations)
    dt = time.monotonic() - t0
    named = ""
    if frame_class is not None:
        if agreement.valid_in != frame_class_mask(frame_class, limits):
            print(f"FAIL {name}: valid frames are not exactly the {frame_class} ones")
            return False
        named = f" (the {frame_class} ones)"
    print(
        f"ok   {name}: valid on {agreement.valid_in.bit_count()}/{agreement.frames} frames"
        f"{named}, {len(result.quasis)} quasi(s), translation equivalent on {models} models, "
        f"{dt:.2f}s"
    )
    return True


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--generated", type=int, default=25)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--max-worlds", type=int, default=3)
    args = ap.parse_args()
    try:
        return sweep(args)
    except (ValueError, EnumerationCapError) as e:
        # A world cap outside 1..5, as hybridcorr verify reports it.
        print(f"error: {e}", file=sys.stderr)
        return 1


def sweep(args) -> int:
    t0 = time.monotonic()
    limits = EnumerationLimits(max_worlds=args.max_worlds)
    print(f"checking against all frames with <= {args.max_worlds} worlds")

    ok = True
    for entry in CORPUS:
        ineq = parse_input(entry.input_text)
        result = run(ineq)
        if not entry.expect_skeletal:
            status = "ok  " if not result.ok else "FAIL"
            ok &= not result.ok
            print(f"{status} {entry.name}: outside the class, engine reports failure")
            continue
        if not result.ok:
            print(f"FAIL {entry.name}: engine failure {result.reason}")
            ok = False
            continue
        ok &= check_case(entry.name, ineq, result, limits, entry.frame_class)

    cfg = GeneratorConfig(max_depth=4, max_props=2, max_nominals=1, filler_depth=2)
    gen = SkeletalGenerator(seed=args.seed, config=cfg)
    for k in range(args.generated):
        ineq, eps = gen.inequality()
        result = run(ineq, eps_hint=eps)
        if not result.ok:
            print(f"FAIL generated-{k}: {fmt(ineq.lhs)} <= {fmt(ineq.rhs)}")
            ok = False
            continue
        ok &= check_case(f"generated-{k}", ineq, result, limits)

    print("all checks passed" if ok else "CHECKS FAILED")
    print(f"total wall time {time.monotonic() - t0:.2f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
