"""External policy for the benchmark's child-process transport.

Reads one NDJSON request per line on stdin and replies with
``{"action": current_obs % num_actions}``, which is always a valid action.
"""

import json
import sys


def main():
    for line in sys.stdin:
        request = json.loads(line)
        action = request["current_obs"] % request["num_actions"]
        sys.stdout.write(json.dumps({"action": action}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
