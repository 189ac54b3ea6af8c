"""Drifted fixture: one result line drops a field the gate reads."""

import json


def run_one(args):
    if args.failed:
        print(json.dumps({"correct": False, "attempted": 1, "metrics": {}}))
        return 1
    print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {}}))
    return 0
