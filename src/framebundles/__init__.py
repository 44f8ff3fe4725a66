"""Frames of finite group-sets, wreath products, and flat-bundle holonomy.

Everything is exact and desk-scale: groups are Cayley tables, group-sets are
action tables, circle angles are rationals, and every structural claim the
library makes is backed by an exhaustive check somewhere in the test suite.
"""

from .errors import (
    BoundExceeded,
    FrameBundlesError,
    ModeMismatch,
    NoQuotient,
    NotFaithful,
    NotFree,
    OrbitObstruction,
    SchemaError,
    TooSmall,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    aut_group,
    automorphisms,
    compose_hom,
    conjugacy_classes,
    from_mul_table,
    group_hom,
    identity_hom,
    is_isomorphism,
    kernel,
    make_cyclic,
    make_direct_product,
    make_symmetric,
)
from .gsets import (
    EquivariantMap,
    GSet,
    OrbitPartition,
    check_equivariant,
    compose_equivariant,
    divide,
    equivariant_map,
    identity_map,
    induced_orbit_map,
    is_free,
    is_orbit_bijection,
    is_transitive,
    make_gset,
    orbits,
    standard_semitorsor,
    trivial_gset,
)
from .frames import (
    Frame,
    FrameSpace,
    WreathElement,
    associated_map,
    associated_map_inverse,
    check_equivalence,
    enumerate_frames,
    frame_divide,
    frame_functor_map,
    is_basis,
    reconstruct_semitorsor,
    wreath_act,
    wreath_group,
    wreath_identity,
    wreath_inv,
    wreath_mul,
)
from .gset_aut import (
    aut_group_of_gset,
    aut_to_wreath,
    autq_component,
    cq,
    section_from_frame,
    ses_report,
    wreath_to_aut,
)
from .bundles import (
    FlatBundle,
    bundle_isomorphic,
    clutching_wreath,
    components,
    finite_winding_bundle,
    flat_bundle,
    frame_bundle,
    group_bundle_over_circle,
    holonomy,
    is_trivializable,
    map_fiber_count,
    quotient_bundle,
    quotient_map,
    sn_action_on_bundle,
    sn_labelling,
    total_components,
    unit_component_is_circle,
)
from .u1 import (
    Angle,
    FiberPoint,
    U1FlatBundle,
    U1Wreath,
    act_point,
    adjoint,
    division_form_check,
    frame_holonomy,
    holonomy_u1,
    pushforward,
    transport,
    u1_identity,
    u1_winding_bundle,
    u1wreath_inv,
    u1wreath_mul,
)

__all__ = [name for name in dir() if not name.startswith("_")]
