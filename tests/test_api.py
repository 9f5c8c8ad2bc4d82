"""Names the package dropped stay dropped: a retired public name that comes
back restores an API that went, and a private one a second code path."""

import ionarch
from ionarch import cli, cluster, estimator, hypercell, netsim, steane

#: Retired public names, none of which ``ionarch.__all__`` may list again.
GONE_PUBLIC = {"EluPhysics", "elu_gate_rate", "type1_error_terms",
               "effective_connection_time", "remote_cnot_cost",
               "local_teleport_time", "ConcatSelection"}


def test_removed_names_stay_gone():
    lattice = cluster.cell_lattice()
    gone = [
        (netsim, ("summary", "EventKind", "_herald_kind", "_log_fields",
                  "_link_probability")),
        (cli, ("_COMMANDS",)),
        (lattice, ("threshold_floats", "_propagated_faces", "_flip_parity",
                   "birth_class", "link_classes", "linear_coefficients",
                   "flips_by_kind")),
        (cluster, ("_gadget_faults", "_birth_faults", "MEASUREMENT_FLIP",
                   "_flip_probabilities", "_odd_parity_probability")),
        (hypercell, ("_MAX_SINGLE_SHOT_COST", "_log_term",
                     "max_attempt_window")),
        (steane.LogicalCostTable, ("entry",)),
        (estimator, ("adder_depth", "_steps_time", "_adder_time",
                     "_layout_columns", "_row", "_comm_quarters",
                     "floor_log2")),
    ]
    assert sorted(GONE_PUBLIC & set(ionarch.__all__)) == []
    assert [name for owner, names in gone for name in names
            if hasattr(owner, name)] == []
