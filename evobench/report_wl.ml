(* report: Report.generate, the command users run (`evolvenet report`).
   The only workload that reaches the experiments, the drills, the
   vN-Bone and the distributed protocols. Every generation must equal
   the committed RESULTS.md byte for byte. *)

module H = Harness
module E = Evolve.Experiments
module Scenario = Evolve.Scenario

let min_ops = function H.Full -> 2 | H.Tiny -> 1
let trace_ops = function H.Full | H.Tiny -> 1

let expected () = In_channel.with_open_bin "RESULTS.md" In_channel.input_all

(* Set-up: the report needs none of its own, so this is the warm-up
   before the first timed generation — the first experiment of the
   report, which pages in code and grows the heap. *)
let warm_up () = ignore (Sys.opaque_identity (E.e1_deployment_sweep ()))

let prepare _size ~seed:_ ~reps =
  let setup_s, () = H.setup_median ~reps ~drop:ignore (fun () -> H.timed warm_up) in
  let want = expected () in
  let got = ref "" in
  {
    H.setup_s;
    op = (fun _ -> got := H.Span.with_ "report.generate" Evolve.Report.generate);
    check = (fun _ -> String.equal !got want);
    work = (fun _ -> 1.0);
    notes =
      (fun xs ->
        [ Printf.sprintf "report: %d generations, median %.3f s" (Array.length xs) (H.median xs) ]);
    close = ignore;
  }

(* --- layer census: core ------------------------------------------------ *)

(* Every experiment, called with the arguments Report passes. *)
let experiments : (string * (unit -> unit)) list =
  let r f () = ignore (Sys.opaque_identity (f ())) in
  [
    ("e01", r E.e1_deployment_sweep);
    ("e02", r E.e2_default_route_sweep);
    ("e03", r E.e3_egress_comparison);
    ("e04", r (E.e3_egress_comparison ~deploy_fraction:0.15 ~pairs:80));
    ("e05", r E.e5_state_scaling);
    ("e06", r E.e6_adoption);
    ("e07", r E.e7_robustness);
    ("e08", r E.e8_convergence);
    ("e09", r E.e9_host_advertised);
    ("e10", r E.e10_discovery_ablation);
    ("e11", r E.e11_congruence);
    ("e12", r E.e12_gia_sweep);
    ("e13", r E.e13_seed_stability);
    ("e14", r E.e14_proxy_alpha);
    ("e15", r E.e15_viability_sweep);
    ("e16", r E.e16_revenue_gravity);
    ("e17", r E.e17_bgpvn_scaling);
    ("e18", r E.e18_flooding_cost);
    ("e19", r E.e19_mrai_sweep);
    ("e20", r E.e20_anycast_resilience);
    ("e21", r E.e21_size_scaling);
    ("e22", r E.e22_fib_scaling);
    ("e23", r E.e23_topology_robustness);
    ("e24", r E.e24_flow_stability);
    ("e25", r E.e25_coalition_sweep);
    ("e26", r E.e26_encapsulation_overhead);
    ("e27", r E.e27_mixed_igp);
    ("e28", r E.e28_path_hunting);
    ("e29", r E.e29_dataplane_cost);
    ("e30", r E.e30_churn_traffic);
    ("e31", r E.e31_fault_convergence);
    ("e32", r E.e32_flap_traffic);
    ("e33", r E.e33_shard_invariance);
    ("e34", r E.e34_drill_catalog);
    ("e35", r E.e35_hijack_containment);
    ("e36", r E.e36_overload_response);
    ("e37", r E.e37_crash_recovery);
  ]

(* The figure section, rendered as Report renders it. *)
let figures () =
  let render pp x = ignore (Sys.opaque_identity (Format.asprintf "%a" pp x)) in
  render Scenario.pp_fig1 (Scenario.fig1 ());
  render Scenario.pp_fig2 (Scenario.fig2 ());
  render Scenario.pp_fig3 (Scenario.fig3 ());
  render Scenario.pp_fig4 (Scenario.fig4 ())

let census _size ~seed:_ =
  let (), fig_s = H.timed figures in
  let exps = List.map (fun (n, f) -> (n, snd (H.timed f))) experiments in
  let out, report_s = H.timed Evolve.Report.generate in
  let ok = String.equal out (expected ()) in
  let sum = List.fold_left (fun a (_, s) -> a +. s) fig_s exps in
  {
    H.layer_metrics =
      (H.metric "report.figures_s" "s" fig_s
      :: List.map (fun (n, s) -> H.metric ("exp." ^ n ^ "_s") "s" s) exps)
      @ [ H.metric "report.unattributed_s" "s" (report_s -. sum) ];
    census_ok = ok;
    census_notes =
      Printf.sprintf "core: report %.3f s, figures %.3f s, experiments %.3f s" report_s fig_s
        (sum -. fig_s)
      :: (if ok then [] else [ "core: Report.generate differs from RESULTS.md" ]);
  }
