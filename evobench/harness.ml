(* Shared measurement machinery: the monotonic clock, sample statistics,
   metric records, the closed-loop runner, a span recorder and the
   result printer. Every workload module builds on these. *)

(* --- clock ---------------------------------------------------------- *)

let now_ns () = Monotonic_clock.now ()

let elapsed_s t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* Run [f] and return its result with its wall time in seconds. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, elapsed_s t0)

(* --- statistics ------------------------------------------------------ *)

(* Quantile [q] in [0, 1] by linear interpolation between order
   statistics. Raises on an empty sample. *)
let quantile q xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Harness.quantile: empty sample";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then s.(n - 1)
  else
    let frac = pos -. float_of_int i in
    s.(i) +. (frac *. (s.(i + 1) -. s.(i)))

let median xs = quantile 0.5 xs
let mean xs = Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

(* A tail percentile is quoted only when at least ten samples lie
   beyond it. *)
let tail_ok ~q n = float_of_int n *. (1.0 -. q) >= 10.0

(* --- metrics --------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* --- sizes and prepared workloads ------------------------------------ *)

(* [Full] is the benchmark; [Tiny] shrinks every workload so the
   self-test can run all of them quickly. *)
type size = Full | Tiny

(* A workload after set-up, ready for the closed loop. [op i] is the
   timed operation; [check i] verifies it afterwards, untimed; [work i]
   is how many work units (packets, steps, reports) it completed. *)
type bench = {
  setup_s : float;  (** median set-up time, warm-up included *)
  op : int -> unit;
  check : int -> bool;
  work : int -> float;
  notes : float array -> string list;
      (** extra report lines, given the per-operation seconds *)
  close : unit -> unit;
}

(* A layer census: per-layer metrics, whether its own checks (replay
   fidelity, zero readings, oracles) passed, and report lines. *)
type census = { layer_metrics : metric list; census_ok : bool; census_notes : string list }

(* Quote a timing sample as median and p95 with its sample count. *)
let quote label xs_s =
  let n = Array.length xs_s in
  let ms q = 1e3 *. quantile q xs_s in
  if tail_ok ~q:0.95 n then
    Printf.sprintf "%s: p50 %.3f ms, p95 %.3f ms (n=%d)" label (ms 0.5) (ms 0.95) n
  else Printf.sprintf "%s: p50 %.3f ms (n=%d, too few for a tail)" label (ms 0.5) n

(* Repeat a set-up [reps] times and report the median time. [f] returns
   the state and its own set-up seconds (so input generation can stay
   out of the figure); [drop] is called on every state but the last so
   pools release their domains and descriptors. A full major collection
   before each repetition keeps one set-up's garbage out of the next
   one's time. *)
let setup_median ~reps ~drop f =
  let rec go k acc last =
    if k = 0 then
      match last with
      | Some st -> (median (Array.of_list acc), st)
      | None -> invalid_arg "Harness.setup_median: reps must be positive"
    else begin
      (match last with Some st -> drop st | None -> ());
      Gc.full_major ();
      let st, dt = f () in
      go (k - 1) (dt :: acc) (Some st)
    end
  in
  go reps [] None

(* The closed loop: one caller issues [b.op] back to back, the next call
   only after the previous one has returned, until [seconds] have
   passed and at least [min_ops] operations ran (at most [max_ops]).
   Each operation is checked right after it, outside its timing.
   Returns per-operation seconds and the failure count. *)
let closed_loop ~seconds ~min_ops ?(max_ops = max_int) b =
  let samples = ref [] and failed = ref 0 and n = ref 0 in
  let start = now_ns () in
  while (!n < min_ops || elapsed_s start < seconds) && !n < max_ops do
    let t0 = now_ns () in
    b.op !n;
    let dt = elapsed_s t0 in
    if not (b.check !n) then incr failed;
    samples := dt :: !samples;
    incr n
  done;
  (Array.of_list (List.rev !samples), !failed)

(* Median seconds of [runs] back-to-back calls of [f i]; [after i]
   runs untimed after each call. *)
let median_runs ?(after = ignore) runs f =
  median
    (Array.init runs (fun i ->
         let (), dt = timed (fun () -> f i) in
         after i;
         dt))

(* --- spans ----------------------------------------------------------- *)

(* Spans recorded from the benchmark's own files around calls into the
   layers: name, start, end and the enclosing span. Kept in memory and
   summarised when the run ends. Disabled (the untraced runs) they cost
   one branch. *)
module Span = struct
  type s = { sname : string; t0 : int64; mutable t1 : int64; parent : int }

  let enabled = ref false
  let log : s array ref = ref [||]
  let len = ref 0
  let current = ref (-1)

  let push s =
    if !len = Array.length !log then begin
      let bigger = Array.make (max 1024 (2 * !len)) s in
      Array.blit !log 0 bigger 0 !len;
      log := bigger
    end;
    !log.(!len) <- s;
    incr len;
    !len - 1

  let with_ name f =
    if not !enabled then f ()
    else begin
      let parent = !current in
      let id = push { sname = name; t0 = now_ns (); t1 = 0L; parent } in
      current := id;
      Fun.protect
        ~finally:(fun () ->
          !log.(id).t1 <- now_ns ();
          current := parent)
        f
    end

  let reset () =
    log := [||];
    len := 0;
    current := -1

  (* Per span name: count, total time and self time (total minus the
     time covered by direct children), in milliseconds, sorted by name. *)
  let summary () =
    let child = Array.make !len 0L in
    for i = 0 to !len - 1 do
      let s = !log.(i) in
      if s.parent >= 0 then
        child.(s.parent) <- Int64.add child.(s.parent) (Int64.sub s.t1 s.t0)
    done;
    let tbl = Hashtbl.create 16 in
    for i = 0 to !len - 1 do
      let s = !log.(i) in
      let dur = Int64.sub s.t1 s.t0 in
      let c, tot, self =
        Option.value (Hashtbl.find_opt tbl s.sname) ~default:(0, 0L, 0L)
      in
      Hashtbl.replace tbl s.sname
        (c + 1, Int64.add tot dur, Int64.add self (Int64.sub dur child.(i)))
    done;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (k, (c, tot, self)) ->
           (k, c, Int64.to_float tot /. 1e6, Int64.to_float self /. 1e6))
end

(* --- process facts --------------------------------------------------- *)

(* Peak resident set (VmHWM) in MiB: the OCaml heap plus every off-heap
   arena, ring and Bigarray the run touched. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "VmHWM not found in /proc/self/status"
      in
      scan ())

(* --- output ---------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Shortest decimal that reads back as the same float. *)
let json_float x =
  let s = Printf.sprintf "%.15g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let result_json ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
          (json_float m.value) (json_string m.unit_))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " ms)
