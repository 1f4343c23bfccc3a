#!/usr/bin/env python3
"""Validate simulator Chrome-trace JSON against the checked-in schema.

Usage: validate_trace.py TRACE.json [TRACE2.json ...]

Parses each trace with the stdlib json module (so a malformed file
fails loudly, unlike the in-tree structural check) and validates it
against tools/trace_schema.json. Only the JSON-Schema subset that
schema actually uses is implemented -- type, required, properties,
enum, items, minimum -- to keep this dependency-free.

Beyond the schema, enforces the cross-field rules Chrome's trace-event
format requires but vanilla JSON Schema cannot express here:

  * "ph":"X" (duration) events must carry "dur";
  * "ph":"i" (instant) events must carry a scope "s";
  * instant events must be sorted by "ts" (the exporter walks the
    ring buffer oldest-first; duration events precede them in
    transaction-completion order, whose begin ticks may interleave);
  * otherData's recorded-minus-dropped count must match the actual
    number of instant events retained in the file.

Exits 0 if every file validates, 1 otherwise.
"""

import gc
import json
import os
import sys

SCHEMA_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "trace_schema.json")

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
}


def render(path):
    """Render a path built by a validator: a "$"-rooted chain of
    (parent, key) pairs, formatted only when an error names it."""
    parts = []
    while isinstance(path, tuple):
        path, key = path
        parts.append(f"[{key}]" if isinstance(key, int) else f".{key}")
    return path + "".join(reversed(parts))


# The exact Python type of a valid value, for the schema types that
# have one ("number" takes int or float; "integer" must reject bool).
_EXACT_TYPES = {"string": str, "integer": int, "boolean": bool}


def leaf_test(schema):
    """(type, enum, minimum) a value that passes schema outright must
    match, or (None, None, None) when schema needs its full check."""
    if (not set(schema) <= {"type", "enum", "minimum"}
            or ("minimum" in schema and schema.get("type") != "integer")):
        return None, None, None
    return (_EXACT_TYPES.get(schema.get("type")), schema.get("enum"),
            schema.get("minimum"))


def compile_schema(schema):
    """Compile the schema subset into validate(value, path, errors).

    Every lookup on the schema happens here, once, instead of once for
    each of the millions of values a trace holds, and an object checks
    a plain property in line when its value passes outright. The
    checks, and the errors they report, are the same for every value.
    """
    expected = schema.get("type")
    python_type = _TYPES[expected] if expected is not None else None
    # bool is a subclass of int; "integer" must not accept it.
    rejects_bool = expected is not None and expected != "boolean"
    has_enum = "enum" in schema
    enum = schema.get("enum")
    has_minimum = "minimum" in schema
    minimum = schema.get("minimum")
    required = tuple(schema.get("required", ()))
    required_keys = frozenset(required)
    properties = tuple((key, *leaf_test(sub), compile_schema(sub))
                       for key, sub in schema.get("properties", {}).items())
    items = compile_schema(schema["items"]) if "items" in schema else None

    def validate(value, path, errors):
        if python_type is not None:
            if rejects_bool and isinstance(value, bool):
                errors.append(f"{render(path)}: expected {expected},"
                              f" got boolean")
                return
            if not isinstance(value, python_type):
                errors.append(
                    f"{render(path)}: expected {expected},"
                    f" got {type(value).__name__}")
                return

        if has_enum and value not in enum:
            errors.append(f"{render(path)}: {value!r} not in {enum}")

        if has_minimum and isinstance(value, (int, float)):
            if value < minimum:
                errors.append(
                    f"{render(path)}: {value} below minimum {minimum}")

        if isinstance(value, dict):
            if not required_keys <= value.keys():
                for key in required:
                    if key not in value:
                        errors.append(f"{render(path)}: missing required"
                                      f" key {key!r}")
            for key, vtype, venum, vmin, check_property in properties:
                if key not in value:
                    continue
                v = value[key]
                if (type(v) is vtype and (venum is None or v in venum)
                        and (vmin is None or v >= vmin)):
                    continue
                check_property(v, (path, key), errors)

        if items is not None and isinstance(value, list):
            for i, item in enumerate(value):
                items(item, (path, i), errors)

    return validate


def check(value, schema, path, errors):
    """Validate value against the schema subset, appending one error,
    named by its JSON path, for every rule it breaks."""
    compile_schema(schema)(value, path, errors)


def check_event_rules(trace, errors):
    """Cross-field rules the schema subset cannot express."""
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return
    last_ts = None
    instants = 0
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            continue
        ph = ev.get("ph")
        if ph == "X" and "dur" not in ev:
            errors.append(f"$.traceEvents[{i}]: duration event missing"
                          f" 'dur'")
        if ph == "i":
            instants += 1
            if "s" not in ev:
                errors.append(f"$.traceEvents[{i}]: instant event"
                              f" missing 's'")
            ts = ev.get("ts")
            if isinstance(ts, int):
                if last_ts is not None and ts < last_ts:
                    errors.append(f"$.traceEvents[{i}]: instant ts {ts}"
                                  f" out of order (prev {last_ts})")
                last_ts = ts

    other = trace.get("otherData")
    if isinstance(other, dict):
        recorded = other.get("events_recorded")
        dropped = other.get("events_dropped", 0)
        if isinstance(recorded, int) and isinstance(dropped, int):
            retained = recorded - dropped
            if instants != retained:
                errors.append(
                    f"$.traceEvents: {instants} instant events but"
                    f" otherData says {retained} retained"
                    f" ({recorded} recorded - {dropped} dropped)")


def validate_file(path, schema, rules, ok_line):
    """Load path, check it against schema and rules(doc, errors), and
    print a FAIL block of up to 20 errors or the "OK" line ok_line(doc)
    gives. Returns whether the file validated."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"FAIL {path}: {exc}")
        return False
    errors = []
    check(doc, schema, "$", errors)
    rules(doc, errors)
    if errors:
        print(f"FAIL {path}:")
        for err in errors[:20]:
            print(f"  {err}")
        if len(errors) > 20:
            print(f"  ... and {len(errors) - 20} more")
        return False
    print(f"OK   {path}: {ok_line(doc)}")
    return True


def run(argv, docstring, schema_path, rules, ok_line, flag=None,
        require=None):
    """The validators' shared command line: [flag] FILE...

    Validates every FILE against the schema at schema_path and
    rules(doc, errors); when flag is given, require(doc, errors) adds
    that mode's errors. With no FILE, prints the usage line of the
    validator's docstring and returns 2; otherwise returns 0 if every
    file validated, 1 otherwise.
    """
    args = argv[1:]
    strict = flag is not None and flag in args
    paths = [a for a in args if a != flag]
    if not paths:
        print(docstring.strip().splitlines()[2])
        return 2
    with open(schema_path, encoding="utf-8") as f:
        schema = json.load(f)

    def all_rules(doc, errors):
        rules(doc, errors)
        if strict:
            require(doc, errors)

    # A trace parses to millions of acyclic containers; the cycle
    # collector would only rescan them while the file is checked.
    gc.disable()
    try:
        ok = all([validate_file(p, schema, all_rules, ok_line)
                  for p in paths])
    finally:
        gc.enable()
    return 0 if ok else 1


def main(argv):
    return run(argv, __doc__, SCHEMA_PATH, check_event_rules,
               lambda trace: f"{len(trace['traceEvents'])} events")


if __name__ == "__main__":
    sys.exit(main(sys.argv))
