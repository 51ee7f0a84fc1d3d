#!/usr/bin/env python3
"""Usage: check_json.py FILE... -- exit 1 unless every FILE parses as JSON."""
import json
import sys

failed = False
for path in sys.argv[1:]:
    try:
        with open(path, encoding="utf-8") as handle:
            json.load(handle)
    except (OSError, ValueError) as error:
        print(f"{path}: {error}", file=sys.stderr)
        failed = True
sys.exit(1 if failed else 0)
