(* pool-gravity: the sharded pool (Multicore.Domainpool) on the E21
   internet under a Zipf gravity matrix with one-byte payloads — the
   multicore path experiments E33/E37 and the drills use. One batch is
   the operation; every batch is audited for conservation and against
   the serial pump's verdict counts. *)

module H = Harness
module Internet = Topology.Internet
module Forward = Simcore.Forward
module Workload = Dataplane.Workload
module Pump = Dataplane.Pump
module Telemetry = Dataplane.Telemetry
module Domainpool = Multicore.Domainpool
module Shard = Multicore.Shard

(* The shard count the benchmark passes (the pool reads no environment
   variable). Two shards on the two-core reference machine: no
   oversubscription. *)
let shards = 2

type dims = {
  transits : int;
  stubs : int;
  flows : int;  (** flows per batch, 16 packets each *)
  batches : int;  (** distinct seeded batches the loop cycles through *)
  census_runs : int;
  serial_runs : int;
}

let dims = function
  | H.Full ->
      { transits = 12; stubs = 6; flows = 16384; batches = 4; census_runs = 32; serial_runs = 6 }
  | H.Tiny ->
      { transits = 2; stubs = 2; flows = 128; batches = 2; census_runs = 3; serial_runs = 2 }

let min_ops = function H.Full -> 200 | H.Tiny -> 4
let trace_ops = function H.Full -> 16 | H.Tiny -> 2

let params d =
  {
    Internet.default_params with
    Internet.transit_domains = d.transits;
    stubs_per_transit = d.stubs;
  }

(* Terminal verdict counts plus the hop and cache counters, read from
   telemetry totals; a batch's figures are the difference of two reads. *)
type counts = {
  delivered : int;
  dropped : int;
  ttl : int;
  queue_dropped : int;
  shed : int;
  hops : int;
  hits : int;
  misses : int;
}

let counts tel =
  let c = Telemetry.total tel in
  {
    delivered = c.Telemetry.delivered;
    dropped = c.Telemetry.dropped;
    ttl = c.Telemetry.ttl_expired;
    queue_dropped = c.Telemetry.queue_dropped;
    shed = c.Telemetry.shed;
    hops = c.Telemetry.packets;
    hits = c.Telemetry.cache_hits;
    misses = c.Telemetry.cache_misses;
  }

let diff a b =
  {
    delivered = a.delivered - b.delivered;
    dropped = a.dropped - b.dropped;
    ttl = a.ttl - b.ttl;
    queue_dropped = a.queue_dropped - b.queue_dropped;
    shed = a.shed - b.shed;
    hops = a.hops - b.hops;
    hits = a.hits - b.hits;
    misses = a.misses - b.misses;
  }

let terminated c = c.delivered + c.dropped + c.ttl + c.queue_dropped + c.shed

let same_verdicts a b =
  a.delivered = b.delivered && a.dropped = b.dropped && a.ttl = b.ttl
  && a.queue_dropped = b.queue_dropped && a.shed = b.shed

(* The BENCH_shard batch shape: gravity zipf 1.2, 16 packets per flow,
   one-byte payloads. *)
let make_batches inet d ~seed =
  let wl =
    Workload.create ~packets_per_flow:16 inet
      (Workload.Gravity { zipf_s = 1.2 })
      ~seed:(Int64.of_int seed)
  in
  Array.init d.batches (fun _ ->
      List.map
        (fun (f : Workload.flow) -> { f with Workload.bytes_per_packet = 1 })
        (Workload.batch wl ~count:d.flows))

let create_pool env ~shards ~seed =
  Domainpool.create ~cache_slots:4096 ~ring_capacity:65536 env ~shards
    ~seed:(Int64.of_int seed)

(* Serial-pump verdict counts per batch: the oracle every pool batch is
   held to (the pool's verdicts are shard-count invariant, E33). *)
let oracle env batches =
  let pump = Pump.create env in
  Array.map
    (fun b ->
      let before = counts (Pump.telemetry pump) in
      Pump.run_batch pump b;
      diff (counts (Pump.telemetry pump)) before)
    batches

let prepare size ~seed ~reps =
  let d = dims size in
  let setup_s, (env, pool, batches) =
    H.setup_median ~reps
      ~drop:(fun (_, pool, _) -> Domainpool.close pool)
      (fun () ->
        let (inet, env, pool), t_build =
          H.timed (fun () ->
              let inet = Internet.build (params d) in
              let env = Forward.make_env inet in
              (inet, env, create_pool env ~shards ~seed))
        in
        let batches = make_batches inet d ~seed in
        let (), t_warm = H.timed (fun () -> Domainpool.run pool batches.(0)) in
        ((env, pool, batches), t_build +. t_warm))
  in
  let expect = oracle env batches in
  let npackets = Array.map Workload.total_packets batches in
  let prev = ref (counts (Domainpool.telemetry pool)) in
  let prev_shed = ref (Domainpool.shed pool) in
  let batch i = i mod d.batches in
  {
    H.setup_s;
    op =
      (fun i ->
        H.Span.with_ "pool.run" (fun () -> Domainpool.run pool batches.(batch i)));
    check =
      (fun i ->
        let now = counts (Domainpool.telemetry pool) in
        let c = diff now !prev and shed = Domainpool.shed pool - !prev_shed in
        prev := now;
        prev_shed := Domainpool.shed pool;
        let b = batch i in
        terminated c = npackets.(b) && same_verdicts c expect.(b) && c.shed = 0
        && shed = 0);
    work = (fun i -> float_of_int npackets.(batch i));
    notes =
      (fun xs ->
        [
          H.quote "batch" xs;
          Printf.sprintf "%d packets per batch, %d shards" npackets.(0) shards;
        ]);
    close = (fun () -> Domainpool.close pool);
  }

(* --- layer census: multicore ------------------------------------------ *)

let sum_shards pool f =
  let s = ref 0 in
  for i = 0 to Domainpool.num_shards pool - 1 do
    s := !s + f (Domainpool.shard pool i)
  done;
  !s

let census size ~seed =
  let d = dims size in
  let inet = Internet.build (params d) in
  let env = Forward.make_env inet in
  let batches = make_batches inet d ~seed in
  let expect = oracle env batches in
  let pkts i = Workload.total_packets batches.(i mod d.batches) in
  let mean_pkts =
    float_of_int (Array.fold_left ( + ) 0 (Array.map Workload.total_packets batches))
    /. float_of_int d.batches
  in
  (* the create span: median of three two-shard pools *)
  let create_s, pool =
    H.setup_median ~reps:3 ~drop:Domainpool.close (fun () ->
        H.timed (fun () -> create_pool env ~shards ~seed))
  in
  Domainpool.run pool batches.(0);
  let tel0 = counts (Domainpool.telemetry pool) in
  let per_shard0 =
    Array.init shards (fun i -> (counts (Shard.telemetry (Domainpool.shard pool i))).hops)
  in
  let cross0 = Domainpool.crossings pool in
  let naps0 = sum_shards pool Shard.naps and passes0 = sum_shards pool Shard.passes in
  let ok = ref true and prev = ref tel0 in
  let run2 =
    H.median_runs d.census_runs
      (fun i -> Domainpool.run pool batches.(i mod d.batches))
      ~after:(fun i ->
        let now = counts (Domainpool.telemetry pool) in
        let c = diff now !prev in
        prev := now;
        if not (terminated c = pkts i && same_verdicts c expect.(i mod d.batches))
        then ok := false)
  in
  let tel = diff (counts (Domainpool.telemetry pool)) tel0 in
  let per_shard =
    Array.init shards (fun i ->
        (counts (Shard.telemetry (Domainpool.shard pool i))).hops - per_shard0.(i))
  in
  let runs = float_of_int d.census_runs in
  let crossings = float_of_int (Domainpool.crossings pool - cross0) /. runs in
  let naps = float_of_int (sum_shards pool Shard.naps - naps0) /. runs in
  let passes = float_of_int (sum_shards pool Shard.passes - passes0) /. runs in
  let spill = float_of_int (Domainpool.overflow_high_water pool) in
  Domainpool.close pool;
  let hop_share_max =
    float_of_int (Array.fold_left max 0 per_shard)
    /. float_of_int (Array.fold_left ( + ) 0 per_shard)
  in
  let pool1 = create_pool env ~shards:1 ~seed in
  Domainpool.run pool1 batches.(0);
  let run1 =
    H.median_runs d.census_runs (fun i -> Domainpool.run pool1 batches.(i mod d.batches))
  in
  Domainpool.close pool1;
  let pump = Pump.create ~cache_slots:4096 env in
  Pump.run_batch pump batches.(0);
  let serial =
    H.median_runs d.serial_runs (fun i -> Pump.run_batch pump batches.(i mod d.batches))
  in
  let pps s = mean_pkts /. s in
  let hit_rate = float_of_int tel.hits /. float_of_int (tel.hits + tel.misses) in
  (* counters this workload exercises must not read zero *)
  let nonzero = crossings > 0.0 && passes > 0.0 && tel.hops > 0 && tel.hits > 0 in
  {
    H.layer_metrics =
      [
        H.metric "pool.hop_share_max" "ratio" hop_share_max;
        H.metric "pool.scaling_eff" "ratio" (pps run2 /. (2.0 *. pps run1));
        H.metric "pool.batching_gain" "ratio" (pps run1 /. pps serial);
        H.metric "pool.crossings_per_batch" "count" crossings;
        H.metric "pool.naps_per_batch" "count" naps;
        H.metric "pool.passes_per_batch" "count" passes;
        H.metric "pool.spill_high_water" "count" spill;
        H.metric "pool.cache_hit_rate" "ratio" hit_rate;
        H.metric "pool.create_ms" "ms" (1e3 *. create_s);
        H.metric "pool.run_ms" "ms" (1e3 *. run2);
      ];
    census_ok = !ok && nonzero;
    census_notes =
      [
        Printf.sprintf
          "multicore: %.0f pps at %d shards, %.0f at 1, serial pump %.0f; hop shares %s"
          (pps run2) shards (pps run1) (pps serial)
          (String.concat "/"
             (Array.to_list
                (Array.map
                   (fun h ->
                     Printf.sprintf "%.3f"
                       (float_of_int h /. float_of_int (Array.fold_left ( + ) 0 per_shard)))
                   per_shard)));
      ]
      @ (if nonzero then [] else [ "multicore: a counter this workload exercises read zero" ])
      @ if !ok then [] else [ "multicore: a census batch broke conservation or the oracle" ];
  }
