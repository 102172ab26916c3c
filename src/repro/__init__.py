"""repro — simulated reproduction of *On-demand Connection Management
for OpenSHMEM and OpenSHMEM+MPI* (Chakraborty et al., IPDPS-W 2015).

The package rebuilds the paper's entire stack as a deterministic
discrete-event simulation:

* :mod:`repro.sim`      — DES kernel (clock, coroutine processes)
* :mod:`repro.cluster`  — cluster topology and calibrated cost models
* :mod:`repro.ib`       — InfiniBand substrate (RC/UD QPs, RDMA, HCA)
* :mod:`repro.pmi`      — Process Management Interface (+ PMIX extensions)
* :mod:`repro.gasnet`   — static and on-demand conduits (active messages)
* :mod:`repro.shmem`    — OpenSHMEM runtime (symmetric heap, RMA, collectives)
* :mod:`repro.mpi`      — minimal MPI over the same unified conduit
* :mod:`repro.core`     — job launcher, runtime configuration, metrics
* :mod:`repro.apps`     — Hello World, 2D-Heat, NAS skeletons, hybrid Graph500
* :mod:`repro.bench`    — per-figure/table experiment harnesses

Quickstart::

    from repro.core import Job, RuntimeConfig
    from repro.apps import HelloWorld

    job = Job(npes=64, config=RuntimeConfig.proposed())
    result = job.run(HelloWorld())
    print(result.startup.breakdown, result.wall_time_us)
"""

from ._version import __version__

__all__ = ["__version__"]
