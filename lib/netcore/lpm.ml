(* A flat range table. The bindings sit in one array sorted by
   Prefix.compare; the address space is cut at every prefix edge into
   disjoint ranges, each naming its longest match once and for all. A
   lookup is then one binary search over the range starts.

   Invariants: [keys] is strictly increasing under Prefix.compare and
   [cells] is parallel to it, every cell a [Some] built once; [starts]
   is strictly increasing with [starts.(0) = 0] (or empty, in {!empty}
   alone, meaning no match anywhere), [slots] is parallel to it, and
   range [i] covers [starts.(i)] up to the next start (or 2^32 - 1);
   [slots.(i)] is the index in [keys] of its longest match, or -1, and
   [hits.(i)] is that key's cell, or [None]. Adjacent ranges never name
   the same slot. *)

type 'a t = {
  keys : Prefix.t array;
  cells : 'a option array;
  starts : int array;
  slots : int array;
  hits : 'a option array;
      (* [cells.(slots.(i))], stored per range so the per-packet lookup
         ends in one load *)
}

let empty = { keys = [||]; cells = [||]; starts = [||]; slots = [||]; hits = [||] }
let is_empty t = Array.length t.keys = 0
let cardinal t = Array.length t.keys

let hits_of cells slots = Array.map (fun s -> if s < 0 then None else cells.(s)) slots
let first_addr p = Ipv4.to_int (Prefix.network p)
let last_addr p = first_addr p + Prefix.size p - 1

(* The range sweep. Prefixes in Prefix.compare order are visited outer
   before inner, so the prefixes containing the sweep position form a
   stack, innermost on top. [cur] is the first address not yet assigned
   to a range; the top of the stack owns everything from [cur] until the
   next key starts or the top ends. *)
let build keys cells =
  let n = Array.length keys in
  let starts = Array.make ((2 * n) + 1) 0 in
  let slots = Array.make ((2 * n) + 1) (-1) in
  let count = ref 0 in
  let emit start slot =
    if !count = 0 || slots.(!count - 1) <> slot then begin
      starts.(!count) <- start;
      slots.(!count) <- slot;
      incr count
    end
  in
  let stack = Array.make 33 0 in
  let depth = ref 0 in
  let cur = ref 0 in
  (* close every open prefix that ends before [addr] *)
  let close_before addr =
    while !depth > 0 && last_addr keys.(stack.(!depth - 1)) < addr do
      let top = stack.(!depth - 1) in
      let last = last_addr keys.(top) in
      if !cur <= last then begin
        emit !cur top;
        cur := last + 1
      end;
      decr depth
    done
  in
  for i = 0 to n - 1 do
    let first = first_addr keys.(i) in
    close_before first;
    if !cur < first then begin
      emit !cur (if !depth = 0 then -1 else stack.(!depth - 1));
      cur := first
    end;
    stack.(!depth) <- i;
    incr depth
  done;
  close_before (1 lsl 32);
  if !cur < 1 lsl 32 then emit !cur (-1);
  let slots = Array.sub slots 0 !count in
  { keys; cells; starts = Array.sub starts 0 !count; slots; hits = hits_of cells slots }

(* Sorted bindings in, table out. Repeated prefixes keep the last
   binding, as repeated [add] does. *)
let of_sorted bs =
  let n = Array.length bs in
  let kept = ref [] in
  for i = n - 1 downto 0 do
    if i = n - 1 || not (Prefix.equal (fst bs.(i)) (fst bs.(i + 1))) then
      kept := bs.(i) :: !kept
  done;
  let bs = Array.of_list !kept in
  build (Array.map fst bs) (Array.map (fun (_, v) -> Some v) bs)

let of_list l =
  let bs = Array.of_list l in
  Array.stable_sort (fun (a, _) (b, _) -> Prefix.compare a b) bs;
  of_sorted bs

(* The index of the last range starting at or before [a], searched for
   among the [n] ranges from [base]. Invariant: [starts.(base) <= a].
   Each step halves [n] and moves [base] by the comparison's 0 or 1
   times [half], a data dependency rather than a branch, so the search
   does not stall on mispredictions. Top-level and capture-free, so a
   lookup allocates nothing (hot-path-alloc). *)
let rec range_of starts a base n =
  if n <= 1 then base
  else
    let half = n lsr 1 in
    let le = Bool.to_int (starts.(base + half) <= a) in
    range_of starts a (base + (le * half)) (n - half)

(* Returns the [Some] stored in [cells], so a hit allocates nothing. *)
let lookup_value addr t =
  let n = Array.length t.starts in
  if n = 0 then None else t.hits.(range_of t.starts (Ipv4.to_int addr) 0 n)

let lookup addr t =
  let n = Array.length t.starts in
  let s = if n = 0 then -1 else t.slots.(range_of t.starts (Ipv4.to_int addr) 0 n) in
  if s < 0 then None
  else match t.cells.(s) with Some v -> Some (t.keys.(s), v) | None -> None

(* The index of [p] in [keys], or [-1 - i] where [i] is the insertion
   point. Top-level so find_exact builds no closure. *)
let rec position keys p lo hi =
  if lo >= hi then -1 - lo
  else
    let mid = (lo + hi) lsr 1 in
    let c = Prefix.compare keys.(mid) p in
    if c = 0 then mid else if c < 0 then position keys p (mid + 1) hi else position keys p lo mid

let index t p = position t.keys p 0 (Array.length t.keys)

let find_exact p t =
  let i = index t p in
  if i < 0 then None else t.cells.(i)

let fold f t acc =
  let acc = ref acc in
  for i = 0 to Array.length t.keys - 1 do
    match t.cells.(i) with Some v -> acc := f t.keys.(i) v !acc | None -> ()
  done;
  !acc

let iter f t = fold (fun p v () -> f p v) t ()
let bindings t = List.rev (fold (fun p v acc -> (p, v) :: acc) t [])

(* Keys and ranges are unchanged; only the cells are rebuilt. *)
let map f t =
  let cells = Array.map (Option.map f) t.cells in
  { t with cells; hits = hits_of cells t.slots }

let add p v t =
  let i = index t p in
  if i >= 0 then begin
    let cells = Array.copy t.cells in
    cells.(i) <- Some v;
    { t with cells; hits = hits_of cells t.slots }
  end
  else
    let at = -1 - i in
    let n = Array.length t.keys in
    let splice a x =
      Array.init (n + 1) (fun j ->
          if j < at then a.(j) else if j = at then x else a.(j - 1))
    in
    build (splice t.keys p) (splice t.cells (Some v))

let remove p t =
  let i = index t p in
  if i < 0 then t
  else
    let n = Array.length t.keys in
    let drop a = Array.init (n - 1) (fun j -> if j < i then a.(j) else a.(j + 1)) in
    build (drop t.keys) (drop t.cells)

(* A linear merge of the two sorted binding lists. *)
let union f a b =
  let rec merge acc xs ys =
    match (xs, ys) with
    | [], r | r, [] -> List.rev_append acc r
    | ((p, va) as x) :: xs', ((q, vb) as y) :: ys' ->
        let c = Prefix.compare p q in
        if c = 0 then merge ((p, f p va vb) :: acc) xs' ys'
        else if c < 0 then merge (x :: acc) xs' ys
        else merge (y :: acc) xs ys'
  in
  of_sorted (Array.of_list (merge [] (bindings a) (bindings b)))
