"""How this process uses the machine: its CPUs, its forks and glibc's malloc policy."""

import ctypes
import gc
import os
import pickle
import signal

from .errors import WorkerFailed

# glibc mallopt(3) parameter numbers, and the variables through which a user
# sets either threshold; a GLIBC_TUNABLES entry "glibc.malloc.*" counts too
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MALLOC_VARIABLES = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_")

# Where a cgroup CPU quota is read, as (quota, period) in microseconds.
# _PROC_CGROUP names the process's cgroup in each hierarchy: cgroup v2's
# line is "0::<path>", whose directory under _CGROUP_ROOT holds both in
# cpu.max ("max" for no quota); a v1 line lists "cpu" among its controllers,
# and its directory under _CGROUP_ROOT/cpu holds them in two files (quota
# -1 for none).
_PROC_CGROUP = "/proc/self/cgroup"
_CGROUP_ROOT = "/sys/fs/cgroup"
_V2_QUOTA, _V1_QUOTA = ("cpu.max",), ("cpu.cfs_quota_us", "cpu.cfs_period_us")


def _glibc():
    """This process's C library with mallopt and malloc_trim declared, or
    None where it has no glibc malloc (musl, macOS, Windows)."""
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt.argtypes, libc.mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        libc.malloc_trim.argtypes, libc.malloc_trim.restype = (ctypes.c_size_t,), ctypes.c_int
    except (OSError, AttributeError, TypeError):
        return None
    return libc


def _keep_freed_memory() -> None:
    """Fix glibc's trim threshold at 1 GiB and its mmap threshold at 32 MiB,
    so the multi-MB numpy temporaries a run frees stay in the heap for the
    next call instead of going back to the OS and faulting in again. Both or
    neither: fixing one turns off glibc's dynamic threshold, which alone
    faults more. An allocator setting in the environment wins."""
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    if "glibc.malloc." in tunables or any(v in os.environ for v in _MALLOC_VARIABLES):
        return
    libc = _glibc()
    if libc is not None:
        libc.mallopt(_M_TRIM_THRESHOLD, 1 << 30)
        libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def _return_freed_memory() -> None:
    """Hand the heap's free pages back to the OS (malloc_trim(0)), where glibc
    has one."""
    libc = _glibc()
    if libc is not None:
        libc.malloc_trim(0)


def _cgroup_dirs():
    """(directory, quota file names) of the process's own cgroup and of each
    of its ancestors, in every hierarchy that may hold a CPU quota: a quota
    anywhere on that path caps the process. Inside a container the mount
    shows its own cgroup at the root, where the deeper paths are missing."""
    try:
        with open(_PROC_CGROUP, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return
    for line in lines:
        fields = line.split(":", 2)
        if len(fields) != 3:
            continue
        if fields[:2] == ["0", ""]:
            root, names = _CGROUP_ROOT, _V2_QUOTA
        elif "cpu" in fields[1].split(","):
            root, names = os.path.join(_CGROUP_ROOT, "cpu"), _V1_QUOTA
        else:
            continue
        parts = [part for part in fields[2].split("/") if part]
        for depth in range(len(parts) + 1):
            yield os.path.join(root, *parts[:depth]), names


def _quota_cpus() -> int | None:
    """The least ceil(quota / period) over the CPU quotas of _cgroup_dirs,
    or None where none holds one: none set, missing or malformed."""
    cpus = []
    for directory, names in _cgroup_dirs():
        try:
            fields = []
            for name in names:
                with open(os.path.join(directory, name), encoding="ascii") as fh:
                    fields += fh.read().split()
            quota, period = map(int, fields)
        except (OSError, ValueError):  # missing, unreadable, "max" or malformed
            continue
        if quota > 0 and period > 0:
            cpus.append(-(-quota // period))
    return min(cpus, default=None)


def _cpus() -> int:
    """CPUs this process may use: those in its affinity mask, capped by a
    cgroup CPU quota; 1 where Python has no os.fork or no
    os.sched_getaffinity (Windows, macOS), so nothing forks there."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        cpus, quota = len(os.sched_getaffinity(0)), _quota_cpus()
        return min(cpus, quota) if quota else cpus
    return 1


def _spare_cpu(processes: int) -> bool:
    """Whether each of `processes` training processes has a second CPU for
    its helper thread."""
    return _cpus() >= 2 * processes


def _fork_map(fn, blocks, lost):
    """[fn(b) for b in blocks]: blocks[0] in this process, every other block
    in an os.fork'ed child that pickles its result, or the exception it
    raised, into a pipe and leaves with os._exit. The first exception in
    block order is raised, as a serial loop would raise it; a child that
    ends without sending raises WorkerFailed(f"{lost} (how it ended)"),
    where `lost` names the stage, as in "an extraction worker ended without
    sending its rows". Every child is reaped before this returns or raises.
    """
    children = []  # (pid, read end of its pipe), in block order
    # keep the collector off the objects parent and children share, so it
    # does not write to their pages and make either side copy them
    gc.freeze()
    try:
        for block in blocks[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    try:
                        sent = (True, fn(block))
                    except Exception as exc:
                        sent = (False, exc)
                    with os.fdopen(w, "wb") as fh:
                        pickle.dump(sent, fh, protocol=pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        results = [fn(blocks[0])]
        while children:
            pid, fh = children[0]
            data = fh.read()
            fh.close()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            try:
                ok, value = pickle.loads(data)
            except Exception:
                code = os.waitstatus_to_exitcode(status)
                how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
                raise WorkerFailed(f"{lost} ({how})") from None
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        gc.unfreeze()
        for pid, fh in children:
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
