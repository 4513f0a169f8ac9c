"""Contact graph routing engine and deterministic DTN simulator for LEO constellations."""

from cgrlab.contactplan import (
    Contact,
    ContactPlan,
    ContactPlanError,
    make_demo_plan,
    occupancy_rate,
    owlt_margin,
    parse_contact_plan,
    serialize_contact_plan,
    total_transit_time,
    with_transit_margin,
)
from cgrlab.routesearch import ContactGraph, Route, build_contact_graph, dijkstra_bdt, yen_plus
from cgrlab.forwarding import (
    Booking,
    Bundle,
    CandidateRoute,
    basic_checks,
    compute_eto,
    compute_evl,
    compute_pat,
    find_rollback_contact,
    forward_critical,
    handle_overbooking,
)
from cgrlab.traffic import ScenarioSpec, generate_scenario
from cgrlab.constellation import (
    IslConstraints,
    WalkerParams,
    generate_contact_plan,
    orbit_period,
    pairwise_distance,
    propagate,
)
from cgrlab.simcore import POLICIES, SimulationMetrics, run_simulation

__version__ = "0.1.0"
