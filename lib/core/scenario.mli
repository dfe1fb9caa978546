(** The paper's four figures (§3.2) as executable scenarios.

    Each function builds the figure's topology with
    {!Topology.Internet.build_custom}, drives the deployment exactly as
    the figure narrates, and returns measured rows; [pp_*] renders the
    table. The expected shapes are asserted by the integration tests
    (test/test_scenario.ml) and recorded in EXPERIMENTS.md. *)

(** {1 Figure 1 — seamless spread of deployment}

    ISPs X, then Y, then Z deploy IPv8; client C (in Z) is redirected
    to the closest IPv8 provider throughout, with no reconfiguration. *)

type fig1_stage = {
  deployed : string list;  (** domains offering IPv8 at this stage *)
  ingress_domain : string;  (** where C's anycast packets land *)
  metric : float;  (** routing metric from C to its ingress *)
}

val fig1 : unit -> fig1_stage list
val pp_fig1 : Format.formatter -> fig1_stage list -> unit

(** {1 Figure 2 — Option 2 anycast: default routes + peering}

    D is the default domain, Q a second participant. Before the Y–Q
    peering advertisement, X's and Y's packets terminate in D while Z's
    reach Q; after it, Y's packets go to Q instead. *)

type fig2_row = {
  stage : string;  (** "before Y-Q peering" / "after Y-Q peering" *)
  source : string;  (** client's domain: X, Y or Z *)
  terminates_in : string;  (** D or Q *)
}

val fig2 : unit -> fig2_row list
val pp_fig2 : Format.formatter -> fig2_row list -> unit

(** {1 Figure 3 — egress selection with BGPv(N-1) import}

    With only BGPvN, the packet leaves the vN-Bone at the ingress
    domain M (last IPvN hop X); when IPvN border routers import
    BGPv(N-1), it rides the vN-Bone to O and exits at Y, close to C. *)

type fig3_row = {
  strategy : string;
  last_vn_domain : string;  (** domain of the last IPvN hop *)
  vn_hops : int;
  exit_hops : int;
  vn_fraction : float;
}

val fig3 : unit -> fig3_row list
val pp_fig3 : Format.formatter -> fig3_row list -> unit

(** {1 Figure 4 — advertising-by-proxy}

    A, B, C support IPvN; M, N, Z only IPv(N-1). When B and C advertise
    their distance to Z into BGPvN, A's packets stay on the vN-Bone
    through C instead of exiting immediately toward Z. *)

type fig4_row = {
  strategy : string;
  egress_domain : string;
  exposure_hops : int;  (** hops outside the vN-Bone (access + exit) *)
  vn_hops : int;
  delivered : bool;
}

val fig4 : unit -> fig4_row list
val pp_fig4 : Format.formatter -> fig4_row list -> unit

(** {1 Registry} *)

val figures : (int * string * (unit -> string)) list
(** Every figure once, in order, as [(n, title, render)]: [render ()]
    runs the scenario and returns its table. The report, [evolvenet fig
    N], [evolvenet all] and the bench harness all read this list. *)
