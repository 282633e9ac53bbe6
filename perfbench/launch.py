"""Child-process entry point: runs the program the way an operator would.

    launch.py --ready                      import the CLI, print "ready", exit
    launch.py --chain PLAN --result OUT    run each argv list in PLAN (JSON)
                                           through cli_dispatch, in order
    launch.py --serve DIR                  `adexpand serve` on DIR, port 0

With ``--trace FILE`` the tracer's wrappers are installed first and the spans
are written to FILE when the command ends (a server ends on SIGINT).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def vmhwm_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_chain(plan: list[list[str]], dispatch, tracer) -> list[dict]:
    commands = []
    for argv in plan:
        call = tracer.wrap(f"cli.{argv[0]}", dispatch) if tracer else dispatch
        start = time.perf_counter()
        rc = call(argv)
        commands.append({"command": argv[0], "s": time.perf_counter() - start, "rc": rc})
        if rc != 0:
            break
    return commands


def main() -> int:
    parser = argparse.ArgumentParser()
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--ready", action="store_true")
    mode.add_argument("--chain")
    mode.add_argument("--serve")
    parser.add_argument("--result")
    parser.add_argument("--trace")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer_mod.install(tracer)
    from adexpand.cli import cli_dispatch

    try:
        if args.ready:
            print("ready", flush=True)
            return 0
        if args.serve:
            return cli_dispatch(["serve", "--snapshot", args.serve, "--port", "0"])
        with open(args.chain, encoding="utf-8") as fh:
            plan = json.load(fh)
        cpu0 = time.process_time()
        commands = run_chain(plan, cli_dispatch, tracer)
        result = {
            "commands": commands,
            "vmhwm_kb": vmhwm_kb(),
            "cpu_s": time.process_time() - cpu0,
        }
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0 if all(c["rc"] == 0 for c in commands) else 1
    finally:
        if tracer is not None:
            tracer.dump(args.trace)


if __name__ == "__main__":
    sys.exit(main())
