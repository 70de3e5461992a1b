"""Choreographic programming toolkit.

A small language of choreographies with a labelled-transition semantics, a
process calculus of local behaviours and networks, endpoint projection from
the former to the latter, and a bounded verifier that checks the projection
and the semantic meta-properties on concrete programs.
"""

from .values import (
    And, BExpr, BFALSE, BLit, BTRUE, EMPTY_STATE, Eq, Expr, Fst, Leq, Lit,
    Not, Pair, Plus, SelLabel, Snd, State, Succ, TotalMap, Value, Var,
    eval_bexpr, eval_expr, eval_on_state,
)
from .choreography import (
    Call, CCProgram, Choreography, ComEta, Cond, DefSet, END, End, Eta,
    Interaction, RTCall, SelEta, UsedProceduresViolated, WfReport, ccc_pn,
    ccp_pn, chor_wf, consistent, initial, no_empty_ann, no_self_comm,
    program_wf, program_wf_dec, used_procedures, well_ann,
)
from .labels import (
    RCall, RCom, RCond, RSel, RichLabel, TCom, TSel, TTau, TransitionLabel,
    forget,
)
from .chor_semantics import CCConfiguration, cc_enabled, cc_step, ccp_multistep, ccp_step
from .processes import (
    B_END, BCall, BCond, BEnd, Branch, Behaviour, Choose, DefSetB, Network,
    Recv, SPProgram, Send, behaviour_wf, network_disjoint, network_wf, par,
    remove, singleton,
)
from .proc_semantics import SPConfiguration, sp_enabled, sp_step, spp_multistep, spp_step
from .projection import (
    Diagnostic, EppFailure, ProjectionResult, bproj, epp, epp_c, epp_d,
    merge, more_branches, more_branches_net, projectable_b, projectable_c,
    projectable_d, projectable_p, str_proj, str_proj_p,
)
from .generator import GenParams, gen_program
from .verification import (
    NotStronglyProjectable, VerifyReport, check_determinism, check_diamond,
    check_epp_complete, check_epp_sound, check_progress,
    check_termination_unique,
)
from .surface import (
    ParseError, SourceFile, Span, parse_cc, parse_cc_file, parse_sp,
    parse_sp_file, print_behaviour, print_cc, print_chor, print_network,
    print_sp,
)

__version__ = "0.1.0"
