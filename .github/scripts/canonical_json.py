"""Fail unless a JSON document is exactly what the standard encoder writes.

    python .github/scripts/canonical_json.py [FILE]    # stdin without FILE

The text must equal ``json.dumps(json.loads(text), sort_keys=True,
indent=2)`` plus one newline, the bytes ``qbcsim analyze --json`` prints.
"""

import json
import sys

text = open(sys.argv[1]).read() if len(sys.argv) > 1 else sys.stdin.read()
if text != json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n":
    sys.exit("not the standard encoding: json.dumps(..., sort_keys=True, indent=2) + newline")
