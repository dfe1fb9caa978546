(* deploy-churn: the control-plane write beside the data-plane read, as
   E30 models it. A 56-domain internet under Option 1; each step swaps
   one seeded participant for one seeded non-participant (an undeploy
   and a deploy, so the participant count never moves and every step
   has the same shape), refreshes the pump's FIB snapshot, then reads: a
   probe sweep through the pump, an anycast resolution from every
   endhost and the delivery rate. The probe verdicts and the anycast
   probes through the pump are held to the live control plane. *)

module H = Harness
module Internet = Topology.Internet
module Forward = Simcore.Forward
module Fib = Simcore.Fib
module Pump = Dataplane.Pump
module Service = Anycast.Service
module Metrics = Anycast.Metrics
module Setup = Evolve.Setup
module Packet = Netcore.Packet
module Ipv4 = Netcore.Ipv4

type dims = {
  transits : int;
  stubs : int;
  participants : int;  (** held fixed by the swaps *)
  probes : int;
  census_steps : int;
}

let dims = function
  | H.Full -> { transits = 8; stubs = 6; participants = 14; probes = 1024; census_steps = 32 }
  | H.Tiny -> { transits = 2; stubs = 2; participants = 2; probes = 32; census_steps = 4 }

let min_ops = function H.Full -> 200 | H.Tiny -> 4
let trace_ops = function H.Full -> 12 | H.Tiny -> 2

let version = 6

let params d =
  {
    Internet.default_params with
    Internet.transit_domains = d.transits;
    stubs_per_transit = d.stubs;
  }

type state = {
  setup : Setup.t;
  pump : Pump.t;
  rng : Random.State.t;  (** the churn sequence *)
  pairs : (int * int) array;  (** probe (src, dst) endhosts *)
  payload : string;
  outs : Forward.outcome array;  (** probe verdicts of the last read *)
  resolved : Forward.outcome array;  (** anycast verdict per endhost *)
  mutable rate : float;
  mutable next : int * int;  (** the next swap: (leaving, joining) *)
}

let participants st = Service.participants (Setup.service st.setup)

(* Pick the next swap: a participant to leave and a non-participant to
   join, each uniform over its set. *)
let choose st =
  let inet = Setup.internet st.setup in
  let part = participants st in
  let pick l = List.nth l (Random.State.int st.rng (List.length l)) in
  let out =
    List.filter (fun x -> not (List.mem x part)) (List.init (Internet.num_domains inet) Fun.id)
  in
  let leave = pick part in
  (leave, pick out)

let swap st =
  let leave, join = st.next in
  H.Span.with_ "setup.undeploy" (fun () -> Setup.undeploy st.setup ~domain:leave);
  H.Span.with_ "setup.deploy" (fun () -> Setup.deploy st.setup ~domain:join)

let update st =
  swap st;
  H.Span.with_ "pump.refresh" (fun () -> Pump.refresh st.pump)

let probe_sweep st =
  Array.iteri
    (fun k (src, dst) ->
      st.outs.(k) <- (Pump.send_data st.pump ~src ~dst ~payload:st.payload).Forward.outcome)
    st.pairs

let resolve_all st =
  let svc = Setup.service st.setup in
  Array.iteri
    (fun e _ -> st.resolved.(e) <- (Service.resolve_from_endhost svc ~endhost:e).Forward.outcome)
    st.resolved

let read st =
  H.Span.with_ "probe.sweep" (fun () -> probe_sweep st);
  H.Span.with_ "anycast.resolve" (fun () -> resolve_all st);
  st.rate <- H.Span.with_ "anycast.delivery_rate" (fun () -> Metrics.delivery_rate (Setup.service st.setup))

(* The read's verdicts against the live control plane: every probe
   equals Forward.send_from_endhost, and the pump delivers an anycast
   probe from each endhost exactly where the service resolves it. *)
let verify st =
  let env = Setup.env st.setup and inet = Setup.internet st.setup in
  let svc = Setup.service st.setup in
  let ok = ref true in
  Array.iteri
    (fun k (src, dst) ->
      let p =
        Packet.make_data ~src:(Internet.endhost inet src).Internet.haddr
          ~dst:(Internet.endhost inet dst).Internet.haddr st.payload
      in
      let o = (Forward.send_from_endhost env p ~endhost:src).Forward.outcome in
      if not (Pump_uniform.outcome_equal o st.outs.(k)) then ok := false)
    st.pairs;
  Array.iteri
    (fun e expected ->
      let p = Packet.make_data ~src:Ipv4.any ~dst:(Service.address svc) "anycast-probe" in
      let o =
        (Pump.inject st.pump p ~entry:(Internet.endhost inet e).Internet.access_router)
          .Forward.outcome
      in
      if not (Pump_uniform.outcome_equal o expected) then ok := false)
    st.resolved;
  !ok

let create d ~seed =
  let rng = Random.State.make [| seed |] in
  let setup =
    Setup.create ~params:(params d) ~version ~strategy:Service.Option1 ()
  in
  let inet = Setup.internet setup in
  let nd = Internet.num_domains inet and nh = Array.length inet.Internet.endhosts in
  (* the initial participants *)
  let start = d.participants in
  let order = Array.init nd Fun.id in
  for i = nd - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  for i = 0 to start - 1 do
    Setup.deploy setup ~domain:order.(i)
  done;
  let pump = Pump.create (Setup.env setup) in
  let pairs =
    Array.init d.probes (fun _ ->
        let src = Random.State.int rng nh in
        let dst = (src + 1 + Random.State.int rng (nh - 1)) mod nh in
        (src, dst))
  in
  let st =
    {
      setup;
      pump;
      rng;
      pairs;
      payload = String.make 64 'x';
      outs = Array.make d.probes (Forward.Dropped Forward.No_route);
      resolved = Array.make nh (Forward.Dropped Forward.No_route);
      rate = 0.0;
      next = (0, 0);
    }
  in
  st.next <- choose st;
  st

let prepare size ~seed ~reps =
  let d = dims size in
  let setup_s, st =
    H.setup_median ~reps ~drop:ignore (fun () ->
        H.timed (fun () ->
            let st = create d ~seed in
            read st;
            st))
  in
  let upd = ref [] and rd = ref [] and part = ref [] in
  {
    H.setup_s;
    op =
      (fun _ ->
        H.Span.with_ "churn.step" (fun () ->
            let (), u = H.timed (fun () -> H.Span.with_ "update" (fun () -> update st)) in
            let (), r = H.timed (fun () -> H.Span.with_ "read" (fun () -> read st)) in
            upd := u :: !upd;
            rd := r :: !rd));
    check =
      (fun _ ->
        let ok = verify st in
        part := List.length (participants st) :: !part;
        st.next <- choose st;
        ok);
    work = (fun _ -> 1.0);
    notes =
      (fun _ ->
        let arr l = Array.of_list (List.rev l) in
        [
          H.quote "update (undeploy + deploy, then Pump.refresh)" (arr !upd);
          H.quote "probe (sweep, resolve, delivery rate)" (arr !rd);
          Printf.sprintf "participants: mean %.2f over %d steps"
            (H.mean (Array.map float_of_int (arr !part)))
            (List.length !part);
        ]);
    close = ignore;
  }

(* --- layer census: core, simcore and anycast --------------------------- *)

let census size ~seed =
  let d = dims size in
  let st = create d ~seed in
  read st;
  let n = d.census_steps in
  let upd = Array.make n 0.0 and refresh = Array.make n 0.0 in
  let probe = Array.make n 0.0 and resolve = Array.make n 0.0 and rate = Array.make n 0.0 in
  let part = Array.make n 0.0 and ok = ref true in
  for i = 0 to n - 1 do
    let (), u = H.timed (fun () -> swap st) in
    let (), f = H.timed (fun () -> Pump.refresh st.pump) in
    let (), p = H.timed (fun () -> probe_sweep st) in
    let (), r = H.timed (fun () -> resolve_all st) in
    let (), m = H.timed (fun () -> st.rate <- Metrics.delivery_rate (Setup.service st.setup)) in
    upd.(i) <- u;
    refresh.(i) <- f;
    probe.(i) <- p;
    resolve.(i) <- r;
    rate.(i) <- m;
    if not (verify st) then ok := false;
    part.(i) <- float_of_int (List.length (participants st));
    st.next <- choose st
  done;
  let entries = float_of_int (Fib.total_entries (Fib.compile (Setup.env st.setup))) in
  let nonzero = entries > 0.0 && H.mean part > 0.0 in
  let ms xs = 1e3 *. H.median xs in
  {
    H.layer_metrics =
      [
        H.metric "setup.update_ms" "ms" (ms upd);
        H.metric "fib.refresh_ms" "ms" (ms refresh);
        H.metric "probe.ns_per_pkt" "ns" (1e9 *. H.median probe /. float_of_int d.probes);
        H.metric "anycast.resolve_ms" "ms" (ms resolve);
        H.metric "anycast.delivery_rate_ms" "ms" (ms rate);
        H.metric "fib.entries" "count" entries;
        H.metric "churn.participants_mean" "count" (H.mean part);
      ];
    census_ok = !ok && nonzero;
    census_notes =
      [
        Printf.sprintf
          "control plane: %s, %s over %d steps; delivery rate %.3f"
          (H.quote "undeploy + deploy" upd) (H.quote "refresh" refresh) n st.rate;
      ]
      @ (if nonzero then [] else [ "control plane: a counter this workload exercises read zero" ])
      @ if !ok then [] else [ "control plane: a probe differed from the live control plane" ];
  }
