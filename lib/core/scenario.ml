module Internet = Topology.Internet
module Relationship = Topology.Relationship
module Forward = Simcore.Forward
module Service = Anycast.Service
module Metrics = Anycast.Metrics
module Router = Vnbone.Router
module Transport = Vnbone.Transport

let spec ~routers ~endhosts ~transit =
  { Internet.routers; endhosts; transit }

let link a b rel_of_b = { Internet.a; b; rel_of_b }

(* ------------------------------------------------------------------ *)
(* Figure 1                                                            *)

type fig1_stage = {
  deployed : string list;
  ingress_domain : string;
  metric : float;
}

(* Domains: 0=W1 (transit), 1=W2 (transit), 2=X, 3=Y, 4=Z.
   X hangs off W1; Y and Z off W2 — so Y is strictly closer to Z's
   client than X is, and deployment by Y visibly improves C's
   redirection, as in the figure. *)
let fig1 () =
  let names = [| "W1"; "W2"; "X"; "Y"; "Z" |] in
  let inet =
    Internet.build_custom ~seed:11L
      [|
        spec ~routers:4 ~endhosts:0 ~transit:true;
        spec ~routers:4 ~endhosts:0 ~transit:true;
        spec ~routers:3 ~endhosts:1 ~transit:false;
        spec ~routers:3 ~endhosts:1 ~transit:false;
        spec ~routers:3 ~endhosts:1 ~transit:false;
      |]
      [
        link 0 1 Relationship.Peer;
        link 2 0 Relationship.Provider;
        link 3 1 Relationship.Provider;
        link 4 1 Relationship.Provider;
      ]
  in
  let setup = Setup.of_internet inet ~version:8 ~strategy:Service.Option1 in
  let client =
    (* the endhost living in Z (domain 4) *)
    (Internet.domain inet 4).Internet.endhost_ids.(0)
  in
  let observe deployed =
    let service = Setup.service setup in
    match Metrics.actual service ~endhost:client with
    | Some (member, metric) ->
        let d = (Internet.router inet member).Internet.rdomain in
        { deployed; ingress_domain = names.(d); metric }
    | None -> { deployed; ingress_domain = "(dropped)"; metric = infinity }
  in
  Setup.deploy setup ~domain:2;
  let s1 = observe [ "X" ] in
  Setup.deploy setup ~domain:3;
  let s2 = observe [ "X"; "Y" ] in
  Setup.deploy setup ~domain:4;
  let s3 = observe [ "X"; "Y"; "Z" ] in
  [ s1; s2; s3 ]

let pp_fig1 fmt stages =
  Format.fprintf fmt "%-16s %-10s %8s@." "deployed" "ingress" "metric";
  List.iter
    (fun s ->
      Format.fprintf fmt "%-16s %-10s %8.1f@."
        (String.concat "," s.deployed)
        s.ingress_domain s.metric)
    stages

(* ------------------------------------------------------------------ *)
(* Figure 2                                                            *)

type fig2_row = { stage : string; source : string; terminates_in : string }

(* Domains: 0=P (transit), 1=Q (transit), 2=D (default, customer of P),
   3=X (customer of P), 4=Y (customer of P and Q), 5=Z (customer of Q). *)
let fig2 () =
  let names = [| "P"; "Q"; "D"; "X"; "Y"; "Z" |] in
  let inet =
    Internet.build_custom ~seed:23L
      [|
        spec ~routers:4 ~endhosts:0 ~transit:true;
        spec ~routers:4 ~endhosts:0 ~transit:true;
        spec ~routers:3 ~endhosts:1 ~transit:false;
        spec ~routers:3 ~endhosts:1 ~transit:false;
        spec ~routers:3 ~endhosts:1 ~transit:false;
        spec ~routers:3 ~endhosts:1 ~transit:false;
      |]
      [
        link 0 1 Relationship.Peer;
        link 2 0 Relationship.Provider;
        link 3 0 Relationship.Provider;
        link 4 0 Relationship.Provider;
        link 4 1 Relationship.Provider;
        link 5 1 Relationship.Provider;
      ]
  in
  let setup =
    Setup.of_internet inet ~version:8
      ~strategy:(Service.Option2 { default_domain = 2 })
  in
  Setup.deploy setup ~domain:2 (* D: the default provider *);
  Setup.deploy setup ~domain:1 (* Q advertises An internally *);
  let service = Setup.service setup in
  let client_of_domain d = (Internet.domain inet d).Internet.endhost_ids.(0) in
  let observe stage =
    List.map
      (fun src_domain ->
        let terminates_in =
          match Metrics.actual service ~endhost:(client_of_domain src_domain) with
          | Some (member, _) ->
              names.((Internet.router inet member).Internet.rdomain)
          | None -> "(dropped)"
        in
        { stage; source = names.(src_domain); terminates_in })
      [ 3; 4; 5 ]
  in
  let before = observe "before Y-Q peering" in
  Service.advertise_to_neighbor service ~from_:1 ~to_:4;
  let after = observe "after Y-Q peering" in
  before @ after

let pp_fig2 fmt rows =
  Format.fprintf fmt "%-22s %-8s %-14s@." "stage" "source" "terminates in";
  List.iter
    (fun r -> Format.fprintf fmt "%-22s %-8s %-14s@." r.stage r.source r.terminates_in)
    rows

(* ------------------------------------------------------------------ *)
(* Figure 3                                                            *)

type fig3_row = {
  strategy : string;
  last_vn_domain : string;
  vn_hops : int;
  exit_hops : int;
  vn_fraction : float;
}

(* Domains: 0=T1, 1=T2 (transits, non-IPvN), 2=M (IPvN, source side),
   3=O (IPvN, one business hop from C's domain), 4=CD (C's domain,
   non-IPvN, customer of T2 and peer of O). *)

let fig3_setup () =
  let inet =
    Internet.build_custom ~seed:31L
      [|
        spec ~routers:4 ~endhosts:0 ~transit:true;
        spec ~routers:4 ~endhosts:0 ~transit:true;
        spec ~routers:4 ~endhosts:1 ~transit:false;
        spec ~routers:4 ~endhosts:0 ~transit:false;
        spec ~routers:3 ~endhosts:1 ~transit:false;
      |]
      [
        link 0 1 Relationship.Peer;
        link 2 0 Relationship.Provider;
        link 3 1 Relationship.Provider;
        link 4 1 Relationship.Provider;
        link 4 3 Relationship.Peer;
      ]
  in
  let setup = Setup.of_internet inet ~version:8 ~strategy:Service.Option1 in
  Setup.deploy setup ~domain:2;
  Setup.deploy setup ~domain:3;
  (inet, setup)

let fig3 () =
  let names = [| "T1"; "T2"; "M"; "O"; "CD" |] in
  let inet, setup = fig3_setup () in
  let src = (Internet.domain inet 2).Internet.endhost_ids.(0) in
  let dst = (Internet.domain inet 4).Internet.endhost_ids.(0) in
  let run strategy =
    let j = Setup.send setup ~strategy ~src ~dst () in
    let last_vn_domain =
      match Transport.last_vn_router j with
      | Some r -> names.((Internet.router inet r).Internet.rdomain)
      | None -> "(none)"
    in
    {
      strategy = Router.strategy_to_string strategy;
      last_vn_domain;
      vn_hops = Transport.vn_hops j;
      exit_hops = Transport.exit_hops j;
      vn_fraction = Transport.vn_fraction j;
    }
  in
  [ run Router.Exit_early; run Router.Bgp_aware ]

let pp_fig3 fmt rows =
  Format.fprintf fmt "%-20s %-12s %8s %10s %12s@." "strategy" "last vN hop"
    "vN hops" "exit hops" "vN fraction";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-20s %-12s %8d %10d %12.2f@." r.strategy
        r.last_vn_domain r.vn_hops r.exit_hops r.vn_fraction)
    rows

(* ------------------------------------------------------------------ *)
(* Figure 4                                                            *)

type fig4_row = {
  strategy : string;
  egress_domain : string;
  exposure_hops : int;
  vn_hops : int;
  delivered : bool;
}

(* Domains: 0=M, 1=N (transits, non-IPvN), 2=A, 3=B, 4=C (IPvN),
   5=Z (non-IPvN destination, customer of N, peer of C). *)
let fig4 () =
  let names = [| "M"; "N"; "A"; "B"; "C"; "Z" |] in
  let inet =
    Internet.build_custom ~seed:41L
      [|
        spec ~routers:4 ~endhosts:0 ~transit:true;
        spec ~routers:4 ~endhosts:0 ~transit:true;
        spec ~routers:3 ~endhosts:1 ~transit:false;
        spec ~routers:3 ~endhosts:0 ~transit:false;
        spec ~routers:3 ~endhosts:0 ~transit:false;
        spec ~routers:3 ~endhosts:1 ~transit:false;
      |]
      [
        link 0 1 Relationship.Peer;
        link 2 0 Relationship.Provider;
        link 3 0 Relationship.Provider;
        link 3 1 Relationship.Provider;
        link 4 1 Relationship.Provider;
        link 5 1 Relationship.Provider;
        link 5 4 Relationship.Peer;
      ]
  in
  let setup = Setup.of_internet inet ~version:8 ~strategy:Service.Option1 in
  Setup.deploy setup ~domain:2;
  Setup.deploy setup ~domain:3;
  Setup.deploy setup ~domain:4;
  let src = (Internet.domain inet 2).Internet.endhost_ids.(0) in
  let dst = (Internet.domain inet 5).Internet.endhost_ids.(0) in
  let run strategy =
    let j = Setup.send setup ~strategy ~src ~dst () in
    let egress_domain =
      match j.Transport.egress with
      | Some r -> names.((Internet.router inet r).Internet.rdomain)
      | None -> "(none)"
    in
    {
      strategy = Router.strategy_to_string strategy;
      egress_domain;
      exposure_hops = Transport.access_hops j + Transport.exit_hops j;
      vn_hops = Transport.vn_hops j;
      delivered = Transport.delivered j;
    }
  in
  [ run Router.Exit_early; run Router.Proxy ]

let pp_fig4 fmt rows =
  Format.fprintf fmt "%-20s %-8s %14s %8s %10s@." "strategy" "egress"
    "exposure hops" "vN hops" "delivered";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-20s %-8s %14d %8d %10b@." r.strategy r.egress_domain
        r.exposure_hops r.vn_hops r.delivered)
    rows

let figures =
  let render pp fig () = Format.asprintf "%a" pp (fig ()) in
  [
    (1, "Figure 1 — seamless spread of deployment", render pp_fig1 fig1);
    (2, "Figure 2 — Option 2 anycast with default routes", render pp_fig2 fig2);
    (3, "Figure 3 — egress selection with BGPv(N-1) import", render pp_fig3 fig3);
    (4, "Figure 4 — advertising-by-proxy", render pp_fig4 fig4);
  ]
