"""The benchmark's workloads.  Each module has `setup(seed, workdir)`,
which builds the inputs and returns the list of jobs in one round."""

from . import cli_pipeline, exact_transfer, mc_geometry

WORKLOADS = {
    "exact_transfer": exact_transfer,
    "mc_geometry": mc_geometry,
    "cli_pipeline": cli_pipeline,
}
