"""veerlab: braid and punctured-torus mapping-class invariants.

Linking and rotation numbers, the Rademacher function by two independent
roads, right-veering and quasipositivity verdicts with machine-checkable
certificates, and braid-closure signatures computed by two engines (a
Seifert-matrix oracle and the Meyer-cocycle recursion through an exact
rational Maslov index).
"""

from veerlab._core import USING_SPEEDUPS
from veerlab.braid import (
    BraidWord,
    braid3_equal,
    concat,
    conjugate,
    free_reduce,
    invert,
    linking_number,
    parse_braid,
    power,
    stabilize,
)
from veerlab.modular import (
    Classification,
    NormalForm,
    PSL2Element,
    SL2Matrix,
    classify,
    normal_form,
    project_b3,
    psl_conjugate,
    rademacher,
    rademacher_class,
)
from veerlab.farey import (
    ExtSlope,
    FareyEdge,
    edge_of,
    lk2_nonqp_certificate,
    rademacher_turns,
    solve_xp_eq_pw,
    turn_word,
)
from veerlab.torus import (
    TorusDecomposition,
    decompose,
    dehn_twist_delta,
    family_psi_check,
    phi,
    quasipositive_verdict,
    right_veering,
    rot,
    verify_theorem_lk,
)
from veerlab.linalg import signature
from veerlab.symplectic import (
    LagrangianFrame,
    LagrangianPath,
    SymplecticSpace,
    chart_coordinates,
    maslov_index,
    meyer,
    ternary_index,
)
from veerlab.burau import burau_matrix, embed_even, lift
from veerlab.linkinv import (
    gg_remark_check,
    meyer_signature,
    seifert_signature,
    verify_eq_signature,
    verify_sign_maslov,
)
from veerlab.verdict import Verdict

__version__ = "0.1.0"
