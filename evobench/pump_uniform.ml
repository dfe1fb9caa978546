(* pump-uniform: the serial pump's per-packet path (Pump.send_data, as
   E29, E30, E32, E36 and the drills use it) under a uniform matrix over
   5,376 endhosts, one packet per flow, payloads 64/512/1400. The
   working set dwarfs the 256-slot flow caches, so LPM, the wire codec
   and telemetry carry the cost. One batch is the operation; every
   packet's verdict is held to the Forward.send_from_endhost oracle. *)

module H = Harness
module Internet = Topology.Internet
module Forward = Simcore.Forward
module Fib = Simcore.Fib
module Workload = Dataplane.Workload
module Pump = Dataplane.Pump
module Telemetry = Dataplane.Telemetry
module Flowcache = Dataplane.Flowcache
module Packet = Netcore.Packet
module Wire = Netcore.Wire
module Lpm = Netcore.Lpm
module Ipv4 = Netcore.Ipv4

type dims = {
  transits : int;
  stubs : int;
  hosts : int;  (** endhosts per domain *)
  flows : int;  (** flows (= packets) per batch *)
  batches : int;  (** distinct seeded batches the loop cycles through *)
  replay_batches : int;
}

let dims = function
  | H.Full ->
      { transits = 12; stubs = 6; hosts = 64; flows = 2048; batches = 64; replay_batches = 16 }
  | H.Tiny -> { transits = 2; stubs = 2; hosts = 8; flows = 64; batches = 2; replay_batches = 2 }

let min_ops = function H.Full -> 200 | H.Tiny -> 4
let trace_ops = function H.Full -> 16 | H.Tiny -> 2

let params d =
  {
    Internet.default_params with
    Internet.transit_domains = d.transits;
    stubs_per_transit = d.stubs;
    endhosts_per_domain = d.hosts;
  }

let outcome_equal a b =
  match (a, b) with
  | Forward.Router_accepted x, Forward.Router_accepted y
  | Forward.Endhost_accepted x, Forward.Endhost_accepted y ->
      x = y
  | Forward.Dropped r, Forward.Dropped s -> r = s
  | (Forward.Router_accepted _ | Forward.Endhost_accepted _ | Forward.Dropped _), _ ->
      false

(* One batch: flows with their payload strings made up front (one
   shared string per size), so the timed loop holds only the send
   calls. *)
type batch = { flows : Workload.flow array; payloads : string array }

let make_batches inet d ~seed =
  let wl =
    Workload.create ~packets_per_flow:1 inet Workload.Uniform ~seed:(Int64.of_int seed)
  in
  let shared = Hashtbl.create 4 in
  let payload n =
    match Hashtbl.find_opt shared n with
    | Some s -> s
    | None ->
        let s = String.make n 'x' in
        Hashtbl.add shared n s;
        s
  in
  Array.init d.batches (fun _ ->
      let flows = Array.of_list (Workload.batch wl ~count:d.flows) in
      { flows; payloads = Array.map (fun (f : Workload.flow) -> payload f.Workload.bytes_per_packet) flows })

let packet inet (f : Workload.flow) payload =
  Packet.make_data
    ~src:(Internet.endhost inet f.Workload.src).Internet.haddr
    ~dst:(Internet.endhost inet f.Workload.dst).Internet.haddr
    payload

(* Per-packet verdicts of the on-the-fly forwarder. *)
let oracle env b =
  Array.mapi
    (fun j (f : Workload.flow) ->
      (Forward.send_from_endhost env (packet env.Forward.inet f b.payloads.(j))
         ~endhost:f.Workload.src)
        .Forward.outcome)
    b.flows

let send pump b outs =
  for j = 0 to Array.length b.flows - 1 do
    let f = b.flows.(j) in
    outs.(j) <-
      (Pump.send_data pump ~src:f.Workload.src ~dst:f.Workload.dst ~payload:b.payloads.(j))
        .Forward.outcome
  done

let build d =
  let inet = Internet.build (params d) in
  let env = Forward.make_env inet in
  (inet, env)

let prepare size ~seed ~reps =
  let d = dims size in
  let setup_s, (env, pump, batches) =
    H.setup_median ~reps ~drop:ignore (fun () ->
        let (inet, env, pump), t_build =
          H.timed (fun () ->
              let inet, env = build d in
              (inet, env, Pump.create env))
        in
        let batches = make_batches inet d ~seed in
        let scratch = Array.make d.flows (Forward.Dropped Forward.No_route) in
        let (), t_warm = H.timed (fun () -> send pump batches.(0) scratch) in
        ((env, pump, batches), t_build +. t_warm))
  in
  let expect = Array.map (oracle env) batches in
  let outs = Array.make d.flows (Forward.Dropped Forward.No_route) in
  let batch i = i mod d.batches in
  {
    H.setup_s;
    op = (fun i -> H.Span.with_ "pump.batch" (fun () -> send pump batches.(batch i) outs));
    check =
      (fun i ->
        let e = expect.(batch i) in
        let ok = ref (Array.length e = Array.length outs) in
        Array.iteri (fun j o -> if not (outcome_equal o outs.(j)) then ok := false) e;
        !ok);
    work = (fun _ -> float_of_int d.flows);
    notes =
      (fun xs ->
        [
          H.quote "batch" xs;
          Printf.sprintf "%d packets per batch, flow-cache hit rate %.3f" d.flows
            (Pump.cache_hit_rate pump);
        ]);
    close = ignore;
  }

(* --- layer census: dataplane and netcore, replayed --------------------- *)

(* The hop stream of a run of the pump: every packet, its wire length,
   its trace's hops and whether it was delivered. *)
type stream = {
  packets : Packet.t array;
  hop_router : int array;
  hop_pkt : int array;  (** packet index of each hop *)
  delivered : int array;  (** indices of delivered packets *)
}

let stream_of inet batches traces =
  let packets =
    Array.concat
      (Array.to_list
         (Array.map
            (fun b -> Array.mapi (fun j f -> packet inet f b.payloads.(j)) b.flows)
            batches))
  in
  let hops = ref [] and deliv = ref [] in
  Array.iteri
    (fun p (tr : Forward.trace) ->
      List.iter (fun r -> hops := (r, p) :: !hops) tr.Forward.hops;
      if Forward.delivered tr then deliv := p :: !deliv)
    traces;
  let hops = Array.of_list (List.rev !hops) in
  {
    packets;
    hop_router = Array.map fst hops;
    hop_pkt = Array.map snd hops;
    delivered = Array.of_list (List.rev !deliv);
  }

(* Time [f ()] [reps] times, each on fresh state from [fresh ()], and
   return the median seconds with the last state. *)
let bulk ~reps ~fresh f =
  let times = Array.make reps 0.0 and last = ref None in
  for k = 0 to reps - 1 do
    let st = fresh () in
    let (), dt = H.timed (fun () -> f st) in
    times.(k) <- dt;
    last := Some st
  done;
  (H.median times, Option.get !last)

let census size ~seed =
  let d = dims size in
  let inet, env = build d in
  let batches = make_batches inet { d with batches = d.replay_batches } ~seed in
  let nb = Array.length batches in
  (* the pump's own run: traces, time and allocation *)
  let pump = Pump.create env in
  let traces = Array.make (nb * d.flows) { Forward.hops = []; outcome = Forward.Dropped Forward.No_route } in
  let words0 = Gc.minor_words () in
  let run_s =
    H.median_runs nb (fun bi ->
        let b = batches.(bi) in
        for j = 0 to d.flows - 1 do
          let f = b.flows.(j) in
          traces.((bi * d.flows) + j) <-
            Pump.send_data pump ~src:f.Workload.src ~dst:f.Workload.dst ~payload:b.payloads.(j)
        done)
  in
  let words = Gc.minor_words () -. words0 in
  let tel = Telemetry.total (Pump.telemetry pump) in
  let ok = ref true in
  Array.iteri
    (fun bi b ->
      let e = oracle env b in
      Array.iteri
        (fun j o ->
          if not (outcome_equal o traces.((bi * d.flows) + j).Forward.outcome) then ok := false)
        e)
    batches;
  let s = stream_of inet batches traces in
  let npk = Array.length s.packets and nh = Array.length s.hop_router in
  let nd = Array.length s.delivered in
  let reps = 5 in
  (* encode once per packet *)
  let encode_s, wires =
    bulk ~reps
      ~fresh:(fun () -> Array.make npk "")
      (fun w -> Array.iteri (fun p pk -> w.(p) <- Wire.encode pk) s.packets)
  in
  let dsts = Array.map (fun p -> Wire.peek_dst_or wires.(p) ~default:Ipv4.any) s.hop_pkt in
  (* header peek per hop *)
  let sink = ref 0 in
  let peek_s, () =
    bulk ~reps ~fresh:ignore (fun () ->
        for h = 0 to nh - 1 do
          sink :=
            !sink lxor Ipv4.to_int (Wire.peek_dst_or wires.(s.hop_pkt.(h)) ~default:Ipv4.any)
        done)
  in
  (* which hops miss a 256-slot cache, and the LPM tables behind it *)
  let fib = Fib.compile env in
  let nr = Internet.num_routers inet in
  let tables = Array.init nr (fun r -> Fib.table fib ~router:r) in
  let fresh_caches () = Array.init nr (fun _ -> Flowcache.create ~slots:256) in
  let hit = Array.make nh false and misses = ref [] in
  let caches = fresh_caches () in
  for h = 0 to nh - 1 do
    let r = s.hop_router.(h) in
    match Flowcache.lookup caches.(r) dsts.(h) with
    | Some _ -> hit.(h) <- true
    | None -> (
        misses := h :: !misses;
        match Lpm.lookup_value dsts.(h) tables.(r) with
        | Some a -> Flowcache.insert caches.(r) dsts.(h) a
        | None -> ())
  done;
  let miss_hops = Array.of_list (List.rev !misses) in
  let nm = Array.length miss_hops in
  (* LPM per miss *)
  let lpm_s, actions =
    bulk ~reps
      ~fresh:(fun () -> Array.make nm None)
      (fun acts ->
        Array.iteri
          (fun k h -> acts.(k) <- Lpm.lookup_value dsts.(h) tables.(s.hop_router.(h)))
          miss_hops)
  in
  (* flow-cache probe per hop, inserting the LPM answer on a miss *)
  let find_s, caches =
    bulk ~reps ~fresh:fresh_caches (fun cs ->
        let k = ref 0 in
        for h = 0 to nh - 1 do
          let c = cs.(s.hop_router.(h)) in
          match Flowcache.lookup c dsts.(h) with
          | Some _ -> ()
          | None ->
              (match actions.(!k) with Some a -> Flowcache.insert c dsts.(h) a | None -> ());
              incr k
        done)
  in
  let replay_hits, replay_misses =
    Array.fold_left
      (fun (h, m) c ->
        let st = Flowcache.stats c in
        (h + st.Flowcache.hits, m + st.Flowcache.misses))
      (0, 0) caches
  in
  (* per-hop telemetry: the hop and the cache probe *)
  let record_s, rtel =
    bulk ~reps
      ~fresh:(fun () -> Telemetry.create ~routers:nr)
      (fun t ->
        for h = 0 to nh - 1 do
          let router = s.hop_router.(h) in
          Telemetry.record_hop t ~router ~cls:Telemetry.Native
            ~bytes:(String.length wires.(s.hop_pkt.(h)))
            ~encap_bytes:0;
          Telemetry.record_cache t ~router ~cls:Telemetry.Native ~hit:hit.(h)
        done)
  in
  let rtot = Telemetry.total rtel in
  (* decode and decapsulate per delivery *)
  let decode_s, () =
    bulk ~reps ~fresh:ignore (fun () ->
        Array.iter
          (fun p ->
            match Wire.decode wires.(p) with
            | Ok pk -> ignore (Packet.decapsulate pk)
            | Error _ -> ())
          s.delivered)
  in
  ignore (Sys.opaque_identity !sink);
  (* the replay must reproduce the pump's own counters exactly *)
  let fidelity =
    nh = tel.Telemetry.packets
    && replay_hits = tel.Telemetry.cache_hits
    && replay_misses = tel.Telemetry.cache_misses
    && rtot.Telemetry.packets = nh
    && rtot.Telemetry.cache_hits = replay_hits
  in
  let nonzero = nh > 0 && nm > 0 && nd > 0 && replay_hits > 0 in
  let per n x = 1e9 *. x /. float_of_int n in
  let pkt_ns = 1e9 *. run_s /. float_of_int d.flows in
  let attributed =
    (1e9 *. (encode_s +. peek_s +. lpm_s +. find_s +. record_s +. decode_s)) /. float_of_int npk
  in
  {
    H.layer_metrics =
      [
        H.metric "wire.encode_ns" "ns" (per npk encode_s);
        H.metric "wire.peek_ns" "ns" (per nh peek_s);
        H.metric "wire.decode_ns" "ns" (per nd decode_s);
        H.metric "flowcache.find_ns" "ns" (per nh find_s);
        H.metric "lpm.lookup_ns" "ns" (per nm lpm_s);
        H.metric "telemetry.record_ns" "ns" (per nh record_s);
        H.metric "pump.hops_per_pkt" "count" (float_of_int nh /. float_of_int npk);
        H.metric "pump.cache_hit_rate" "ratio"
          (float_of_int tel.Telemetry.cache_hits
          /. float_of_int (tel.Telemetry.cache_hits + tel.Telemetry.cache_misses));
        H.metric "pump.alloc_words_per_pkt" "words" (words /. float_of_int npk);
        H.metric "pump.unattributed_ns" "ns" (pkt_ns -. attributed);
      ];
    census_ok = !ok && fidelity && nonzero;
    census_notes =
      [
        Printf.sprintf
          "dataplane replay: %d packets, %d hops, %d misses, %d deliveries; %.0f ns/packet, %.0f attributed"
          npk nh nm nd pkt_ns attributed;
      ]
      @ (if fidelity then []
         else
           [
             Printf.sprintf
               "dataplane replay: hops %d vs %d, hits %d vs %d, misses %d vs %d — fidelity lost"
               nh tel.Telemetry.packets replay_hits tel.Telemetry.cache_hits replay_misses
               tel.Telemetry.cache_misses;
           ])
      @ (if nonzero then [] else [ "dataplane: a counter this workload exercises read zero" ])
      @ if !ok then [] else [ "dataplane: a replayed packet differed from the oracle" ];
  }
