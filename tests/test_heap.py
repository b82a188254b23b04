import importlib
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import pytest

import rankpath
from rankpath import _heap

MMAP_CALL = (-3, 32 << 20)
TRIM_CALL = (-1, 64 << 20)


def untuned_environ() -> dict:
    return {
        key: value
        for key, value in os.environ.items()
        if key != "GLIBC_TUNABLES" and not (key.startswith("MALLOC_") and key.endswith("_"))
    }


@pytest.fixture
def libc(monkeypatch):
    """A fake glibc in an untuned environment: ``libc.calls`` records each
    ``mallopt``, and ``libc.result`` is what it returns."""
    monkeypatch.setattr(os, "environ", untuned_environ())
    monkeypatch.setattr(_heap, "libc_ver", lambda: ("glibc", "2.36"))
    fake = SimpleNamespace(calls=[], result=1)

    def mallopt(param, value):
        fake.calls.append((param, value))
        return fake.result

    monkeypatch.setattr(_heap, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    return fake


def missing_libc(name):
    raise OSError("no C library")


class TestFixHeapThresholds:
    def test_sets_mmap_then_trim_threshold_on_glibc(self, libc):
        _heap.fix_heap_thresholds()
        assert libc.calls == [MMAP_CALL, TRIM_CALL]

    def test_leaves_trim_threshold_where_mmap_threshold_is_refused(self, libc):
        libc.result = 0
        _heap.fix_heap_thresholds()
        assert libc.calls == [MMAP_CALL]

    def test_nothing_without_a_loadable_libc(self, libc, monkeypatch):
        monkeypatch.setattr(_heap, "CDLL", missing_libc)
        _heap.fix_heap_thresholds()

    def test_nothing_without_mallopt(self, libc, monkeypatch):
        monkeypatch.setattr(_heap, "CDLL", lambda name: SimpleNamespace())
        _heap.fix_heap_thresholds()

    def test_nothing_off_glibc(self, libc, monkeypatch):
        monkeypatch.setattr(_heap, "libc_ver", lambda: ("", ""))
        _heap.fix_heap_thresholds()
        assert libc.calls == []

    @pytest.mark.parametrize(
        "key, value",
        [("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=1048576"),
         ("MALLOC_TRIM_THRESHOLD_", "1048576")],
    )
    def test_nothing_where_the_environment_tunes_malloc(self, libc, key, value):
        os.environ[key] = value
        _heap.fix_heap_thresholds()
        assert libc.calls == []

    @pytest.mark.parametrize("case", ["glibc", "refused", "no libc", "no mallopt", "not glibc"])
    def test_import_never_raises(self, libc, monkeypatch, case):
        if case == "refused":
            libc.result = 0
        elif case == "no libc":
            monkeypatch.setattr(_heap, "CDLL", missing_libc)
        elif case == "no mallopt":
            monkeypatch.setattr(_heap, "CDLL", lambda name: SimpleNamespace())
        elif case == "not glibc":
            monkeypatch.setattr(_heap, "libc_ver", lambda: ("", ""))
        assert importlib.reload(rankpath).build_path is rankpath.paths.build_path


#: alternates top-stratum 200 x 150 t = 4 real and 40 x 40 t = 20 complex
#: pairs and prints the median minor faults of the calls after the first 4
FAULTS_SCRIPT = textwrap.dedent(
    """
    import resource, statistics
    from rankpath import ScalarField, VarietyDescriptor, build_path, sample_stratum

    shapes = [VarietyDescriptor(200, 150, 4, ScalarField.REAL),
              VarietyDescriptor(40, 40, 20, ScalarField.COMPLEX)]
    pairs = [(d, sample_stratum(d, d.max_rank, 1.0, 2 * i + 1),
              sample_stratum(d, d.max_rank, 1.3, 2 * i + 2))
             for i in range(12) for d in shapes]
    faults = []
    for i, (d, p, q) in enumerate(pairs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        build_path(p, q, d)
        if i >= 4:
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    print(statistics.median(faults))
    """
)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_large_builds_reuse_freed_heap_pages():
    """Once warm, a large build takes its arrays from pages the heap kept:
    without the fixed thresholds each call faulted in hundreds anew."""
    src = str(Path(rankpath.__file__).resolve().parent.parent)
    env = untuned_environ()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    done = subprocess.run(
        [sys.executable, "-c", FAULTS_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) <= 16
