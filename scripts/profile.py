#!/usr/bin/env python3
"""Where a command spends its CPU time, by function and by source line.

    scripts/profile.py [--period-us N] [--top N] -- <command> [args...]

Samples the instruction pointer of every thread of <command> on the task
clock (perf_event_open: PERF_TYPE_SOFTWARE / PERF_COUNT_SW_TASK_CLOCK,
PERF_SAMPLE_IP, one event per CPU with inherit and enable_on_exec, a
64-page ring per event drained every 5 ms), then symbolizes the addresses
with `llvm-symbolizer-14 --inlining` and prints each thread's share of the
samples, then four tables: the innermost (inlined) function of each sample,
every function on its inline chain (inclusive), the same for the main
thread's samples alone, and the innermost source line. Shares are of all
samples. Needs perf_event access
(kernel.perf_event_paranoid <= 2) and a binary built with line tables, e.g.
CARGO_PROFILE_RELEASE_DEBUG=1. Example:

    scripts/profile.py -- target/release/noc-benchmark --workload sparse_idle --seconds 21
"""
import argparse, collections, ctypes, mmap, os, re, struct, subprocess, sys, time

NR_PERF_EVENT_OPEN = {"x86_64": 298, "aarch64": 241}[os.uname().machine]
PAGE = os.sysconf("SC_PAGE_SIZE")
RING_PAGES = 64
# disabled | inherit | exclude_kernel | exclude_hv | mmap | enable_on_exec | mmap2
FLAGS = 1 << 0 | 1 << 1 | 1 << 5 | 1 << 6 | 1 << 8 | 1 << 12 | 1 << 23
RECORD_LOST, RECORD_SAMPLE, RECORD_MMAP2 = 2, 9, 10


def open_events(pid, period_ns):
    libc = ctypes.CDLL(None, use_errno=True)
    attr = struct.pack("<IIQQQQQ", 1, 112, 1, period_ns, 1 | 2, 0, FLAGS).ljust(112, b"\0")
    rings = []
    for cpu in sorted(os.sched_getaffinity(0)):
        fd = libc.syscall(NR_PERF_EVENT_OPEN, ctypes.c_char_p(attr), pid, cpu, -1, 8)
        if fd < 0:
            sys.exit(f"perf_event_open: {os.strerror(ctypes.get_errno())}")
        rings.append(mmap.mmap(fd, (1 + RING_PAGES) * PAGE, mmap.MAP_SHARED))
    return rings


def drain(ring, records):
    """Appends every record between the ring's tail and head; frees them."""
    def read(pos, n):
        start = pos % (RING_PAGES * PAGE)
        first = ring[PAGE + start:PAGE + min(start + n, RING_PAGES * PAGE)]
        return first + ring[PAGE:PAGE + n - len(first)]
    head, tail = struct.unpack_from("<QQ", ring, 1024)
    while tail < head:
        kind, _, size = struct.unpack("<IHH", read(tail, 8))
        records.append((kind, read(tail + 8, size - 8)))
        tail += size
    struct.pack_into("<Q", ring, 1032, tail)


def load_segments(path, cache={}):
    """PT_LOAD (offset, filesz, vaddr) of an ELF file."""
    if path not in cache:
        try:
            with open(path, "rb") as f:
                elf = f.read(1 << 16)
            phoff, = struct.unpack_from("<Q", elf, 0x20)
            entsize, count = struct.unpack_from("<HH", elf, 0x36)
            headers = [struct.unpack_from("<IIQQQQ", elf, phoff + i * entsize) for i in range(count)]
            cache[path] = [(off, size, vaddr) for kind, _, off, vaddr, _, size in headers if kind == 1]
        except (OSError, struct.error):
            cache[path] = []
    return cache[path]


ESCAPES = {"SP": "@", "BP": "*", "RF": "&", "LT": "<", "GT": ">", "LP": "(", "RP": ")", "C": ","}


def clean(name):
    """A legacy-mangled Rust path as source spells it, without its hash."""
    name = re.sub(r"::h[0-9a-f]{16}$", "", name)
    name = re.sub(r"(^|::)_(?=\$)", r"\1", name)
    name = re.sub(r"\$(SP|BP|RF|LT|GT|LP|RP|C|u[0-9a-f]{2})\$",
                  lambda m: ESCAPES.get(m[1]) or chr(int(m[1][1:], 16)), name)
    return name.replace("..", "::")


def symbolize(path, addrs):
    """{address: [(function, file:line), ...] innermost first}."""
    out = subprocess.run(["llvm-symbolizer-14", "--inlining", f"--obj={path}"], check=True,
                         input="\n".join(hex(a) for a in addrs), capture_output=True, text=True).stdout
    frames = {}
    for addr, block in zip(addrs, out.strip("\n").split("\n\n")):
        lines = block.split("\n")
        frames[addr] = [(clean(fn), os.path.basename(loc.rsplit(":", 1)[0]))
                        for fn, loc in zip(lines[0::2], lines[1::2])]
    return frames


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--period-us", type=int, default=250, help="task-clock sampling period")
    parser.add_argument("--top", type=int, default=25, help="rows per table")
    parser.add_argument("command", nargs="+")
    args = parser.parse_args()
    go_r, go_w = os.pipe()
    child = os.fork()
    if child == 0:
        os.read(go_r, 1)
        os.execvp(args.command[0], args.command)
    rings = open_events(child, args.period_us * 1000)
    os.write(go_w, b"x")
    records = []
    while os.waitpid(child, os.WNOHANG) == (0, 0):
        time.sleep(0.005)
        for ring in rings:
            drain(ring, records)
    for ring in rings:
        drain(ring, records)
    maps, lost = [], 0
    samples, on_main, threads = (collections.Counter() for _ in range(3))
    for kind, body in records:
        if kind == RECORD_MMAP2:
            _, _, start, length, pgoff = struct.unpack_from("<IIQQQ", body)
            maps.append((start, start + length, pgoff, body[64:].split(b"\0")[0].decode()))
        elif kind == RECORD_SAMPLE:
            ip, _, tid = struct.unpack_from("<QII", body)
            samples[ip] += 1
            on_main[ip] += tid == child
            threads["main" if tid == child else f"thread {tid}"] += 1
        elif kind == RECORD_LOST:
            lost += struct.unpack_from("<QQ", body)[1]
    # Runtime address -> (object, address in the object's own ELF layout).
    by_object = collections.defaultdict(dict)
    for ip in samples:
        for start, end, pgoff, path in maps:
            if start <= ip < end:
                fo = ip - start + pgoff
                vaddr = [fo - off + va for off, size, va in load_segments(path) if off <= fo < off + size]
                by_object[path][ip] = vaddr[0] if vaddr else fo
    innermost, inclusive, main, lines = (collections.Counter() for _ in range(4))
    unmapped = sum(samples.values())
    for path, ips in by_object.items():
        frames = symbolize(path, sorted(set(ips.values())))
        for ip, vaddr in ips.items():
            chain = frames.get(vaddr) or [(f"?? ({os.path.basename(path)})", "??")]
            innermost[chain[0][0]] += samples[ip]
            lines[f"{chain[0][0]} @ {chain[0][1]}"] += samples[ip]
            for fn in {fn for fn, _ in chain}:
                inclusive[fn] += samples[ip]
                main[fn] += on_main[ip]
            unmapped -= samples[ip]
    total = sum(samples.values())
    print(f"{total} samples at {args.period_us} us of task clock; {lost} lost, {unmapped} unmapped")
    print(", ".join(f"{name} {100 * n / max(total, 1):.1f} %" for name, n in threads.most_common(8)))
    for title, table in [("innermost function", innermost), ("inclusive (inline chain)", inclusive),
                         ("inclusive, main thread only", main), ("innermost line", lines)]:
        print(f"\n== {title}")
        for name, n in table.most_common(args.top):
            print(f"{100 * n / max(total, 1):6.2f} %  {name}")


if __name__ == "__main__":
    main()
