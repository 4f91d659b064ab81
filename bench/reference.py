"""The reference run: the unit of the benchmark's ``*_ref`` metrics.

A fixed pure-Python job, run as its own child process just like each
plumbhf operation.  It starts an interpreter, grows a dict of short bytes
keys (game states) to 300k entries and looks keys up, which is what
a full count spends its time on.  Time as a ratio to this run tracks the
host's speed far better than any loop timed inside the long-lived parent:
on a 2-vCPU VM the log-log correlation with a ``plumbhf brieskorn`` child
was 0.67 for this child and 0.07 to 0.13 for in-parent loops.  It is
benchmark code, so no change to plumbhf moves it.
"""

N = 300_000


def main() -> int:
    table = {}
    state = bytearray(14)
    for i in range(N):
        j = (i * 7919) % 14
        state[j] = (state[j] + 1) % 5
        state[(j + 3) % 14] = (i >> 3) % 3
        table[bytes(state) + i.to_bytes(3, "little")] = j
    hits = 0
    for i in range(0, N, 3):
        hits += table.get(i.to_bytes(3, "little"), 0)
    return len(table) + hits


if __name__ == "__main__":
    main()
