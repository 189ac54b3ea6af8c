"""Drifted fixture: the gate reads a field no result line writes."""


def verdict(result):
    return result["correct"], result["failed"], result.get("speedup")
