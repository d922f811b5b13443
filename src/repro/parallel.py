""":class:`ParallelConfig`, accepted and ignored.

There is no partition-parallel execution: every plan runs serially as one
generated function (``docs/JIT.md``). The name stays, with
:meth:`Database.enable_parallel <repro.db.Database.enable_parallel>`,
because ``benchmarks/harness`` still builds one for its ``parallel.*``
probe, which therefore reads a run ratio near 1 and zero partitions.
"""

from dataclasses import dataclass


@dataclass
class ParallelConfig:
    """What :meth:`Database.enable_parallel` accepts; it changes nothing."""

    max_workers: int = 1
