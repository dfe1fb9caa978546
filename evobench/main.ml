(* The evolvenet benchmark driver.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--size full|tiny] [--commit SHA] [--source-digest HEX]

   --trace 0 sets the workload up (five times; the median is setup_s),
   runs its closed loop for S seconds (and at least the operations its
   percentiles need) and prints the end-to-end metrics. --trace 1 sets
   it up once, runs the loop untraced and traced, alternating, for the
   tracing overhead, then takes the census of every layer. The last
   line of standard output is the JSON result; the lines above it are
   for people. See README.md for the workloads and metrics. *)

module H = Harness

type workload = {
  name : string;
  prepare : H.size -> seed:int -> reps:int -> H.bench;
  min_ops : H.size -> int;
  trace_ops : H.size -> int;
}

let workloads =
  [
    {
      name = "pool-gravity";
      prepare = Pool_gravity.prepare;
      min_ops = Pool_gravity.min_ops;
      trace_ops = Pool_gravity.trace_ops;
    };
    {
      name = "pump-uniform";
      prepare = Pump_uniform.prepare;
      min_ops = Pump_uniform.min_ops;
      trace_ops = Pump_uniform.trace_ops;
    };
    {
      name = "deploy-churn";
      prepare = Deploy_churn.prepare;
      min_ops = Deploy_churn.min_ops;
      trace_ops = Deploy_churn.trace_ops;
    };
    {
      name = "report";
      prepare = Report_wl.prepare;
      min_ops = Report_wl.min_ops;
      trace_ops = Report_wl.trace_ops;
    };
  ]

(* Every layer's census, whatever the workload: the per-layer metrics
   are one fixed set, each measured on the workload that exercises its
   layer. *)
let censuses =
  [ Pool_gravity.census; Pump_uniform.census; Deploy_churn.census; Report_wl.census ]

let sum_work (b : H.bench) n =
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    s := !s +. b.H.work i
  done;
  !s

let untraced w ~size ~seed ~seconds =
  let b = w.prepare size ~seed ~reps:5 in
  let xs, failed = H.closed_loop ~seconds ~min_ops:(w.min_ops size) b in
  let n = Array.length xs in
  let busy = Array.fold_left ( +. ) 0.0 xs in
  let metrics =
    [
      H.metric "setup_s" "s" b.H.setup_s;
      H.metric "op_ms_p50" "ms" (1e3 *. H.median xs);
      H.metric "work_per_s" "1/s" (sum_work b n /. busy);
      H.metric "peak_rss_mb" "MB" (H.peak_rss_mb ());
    ]
  in
  let notes = b.H.notes xs in
  b.H.close ();
  (n, failed, true, metrics, notes)

(* Untraced and traced stretches of [trace_ops] operations alternate,
   A B A B, so neither side always runs on the warmer state; a workload
   whose operation takes seconds (report) runs A B once. *)
let traced w ~size ~seed =
  let b = w.prepare size ~seed ~reps:1 in
  let per = w.trace_ops size in
  let loop () = H.closed_loop ~seconds:0.0 ~min_ops:per ~max_ops:per b in
  let xu = ref [||] and xt = ref [||] and failed = ref 0 in
  for _ = 1 to if per = 1 then 1 else 2 do
    let u, fu = loop () in
    H.Span.enabled := true;
    let t, ft = loop () in
    H.Span.enabled := false;
    xu := Array.append !xu u;
    xt := Array.append !xt t;
    failed := !failed + fu + ft
  done;
  b.H.close ();
  let spans = H.Span.summary () in
  H.Span.reset ();
  let xu = !xu and xt = !xt in
  let overhead_ms = 1e3 *. (H.median xt -. H.median xu) in
  let cs = List.map (fun c -> c size ~seed) censuses in
  let metrics =
    List.concat_map (fun c -> c.H.layer_metrics) cs
    @ [ H.metric "trace.overhead_ms_per_op" "ms" overhead_ms ]
  in
  let notes =
    Printf.sprintf "tracing overhead: %.4f ms per operation (traced p50 %.4f ms, untraced %.4f ms, n=%d each)"
      overhead_ms (1e3 *. H.median xt) (1e3 *. H.median xu) (Array.length xu)
    :: List.map
         (fun (name, count, total, self) ->
           Printf.sprintf "span %-28s n=%-6d total %10.3f ms  self %10.3f ms" name count total self)
         spans
    @ List.concat_map (fun c -> c.H.census_notes) cs
  in
  let ok = List.for_all (fun c -> c.H.census_ok) cs in
  (Array.length xu + Array.length xt, !failed, ok, metrics, notes)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny] \
     [--commit SHA] [--source-digest HEX]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun w -> w.name) workloads));
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 and trace = ref 0 in
  let size = ref H.Full and commit = ref "unknown" and digest = ref "unknown" in
  let rec parse = function
    | "--workload" :: v :: r ->
        workload := v;
        parse r
    | "--seed" :: v :: r ->
        seed := int_of_string_opt v;
        if !seed = None then usage ();
        parse r
    | "--seconds" :: v :: r ->
        (match float_of_string_opt v with Some s when s > 0.0 -> seconds := s | _ -> usage ());
        parse r
    | "--trace" :: v :: r ->
        (match v with "0" -> trace := 0 | "1" -> trace := 1 | _ -> usage ());
        parse r
    | "--size" :: v :: r ->
        (match v with "full" -> size := H.Full | "tiny" -> size := H.Tiny | _ -> usage ());
        parse r
    | "--commit" :: v :: r ->
        commit := v;
        parse r
    | "--source-digest" :: v :: r ->
        digest := v;
        parse r
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seed = match !seed with Some s -> s | None -> usage () in
  let attempted, failed, checks_ok, metrics, notes =
    if !trace = 0 then untraced w ~size:!size ~seed ~seconds:!seconds
    else traced w ~size:!size ~seed
  in
  List.iter print_endline notes;
  List.iter
    (fun m -> Printf.printf "%-28s %18.6f %s\n" m.H.name m.H.value m.H.unit_)
    metrics;
  Printf.printf
    "{\"env\": {\"workload\": %s, \"seed\": %d, \"trace\": %d, \"shards\": %d, \"nproc\": %d, \
     \"ocaml\": %s, \"commit\": %s, \"source_digest\": %s, \"attempted\": %d, \"failed\": %d}}\n"
    (H.json_string w.name) seed !trace Pool_gravity.shards
    (Domain.recommended_domain_count ())
    (H.json_string Sys.ocaml_version) (H.json_string !commit) (H.json_string !digest)
    attempted failed;
  (* a non-finite figure is a harness bug: fail without a result *)
  (match List.find_opt (fun m -> not (Float.is_finite m.H.value)) metrics with
  | Some m ->
      Printf.eprintf "evobench: metric %s is not finite\n" m.H.name;
      exit 1
  | None -> ());
  let correct = failed = 0 && checks_ok in
  print_endline (H.result_json ~correct ~attempted ~failed metrics)
