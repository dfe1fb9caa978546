(** Longest-prefix-match tables.

    An immutable range table from {!Prefix} keys to arbitrary values,
    with longest-match lookup — the core forwarding-table structure for
    both the IPv4 substrate and the anycast routing experiments, where
    §3.2's non-aggregatable anycast prefixes sit alongside ordinary
    unicast routes.

    The bindings are kept sorted by {!Prefix.compare}, and the address
    space is split into disjoint ranges, each naming its longest match.
    A table is built in bulk: {!of_list} costs O(n log n) for n
    bindings, a lookup is one binary search, O(log n), and each
    single-binding update ({!add}, {!remove}) rebuilds the table in
    O(n). Build with {!of_list}, not with a chain of {!add}s. *)

type 'a t
(** A table mapping prefixes to values of type ['a]. Immutable:
    operations return new tables. *)

val empty : 'a t
val is_empty : 'a t -> bool

val add : Prefix.t -> 'a -> 'a t -> 'a t
(** [add p v t] binds [p] to [v], replacing any previous binding of
    exactly [p]. Bindings for other (longer or shorter) prefixes are
    unaffected. O(n): the table is rebuilt. *)

val remove : Prefix.t -> 'a t -> 'a t
(** Remove the binding for exactly [p], if any. O(n) when [p] is
    bound (the table is rebuilt), O(log n) otherwise. *)

val find_exact : Prefix.t -> 'a t -> 'a option
(** The value bound to exactly [p]. O(log n). *)

val lookup : Ipv4.t -> 'a t -> (Prefix.t * 'a) option
(** [lookup addr t] is the binding with the longest prefix containing
    [addr], or [None] when no bound prefix covers it. O(log n). *)

val lookup_value : Ipv4.t -> 'a t -> 'a option
(** The value of {!lookup}, without the prefix. O(log n), and it
    allocates nothing: it returns the option stored in the table. *)

val fold : (Prefix.t -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Fold over all bindings in {!Prefix.compare} order. O(n). *)

val iter : (Prefix.t -> 'a -> unit) -> 'a t -> unit
(** Visit all bindings in {!Prefix.compare} order. O(n). *)

val bindings : 'a t -> (Prefix.t * 'a) list
(** All bindings sorted by {!Prefix.compare}. O(n). *)

val cardinal : 'a t -> int
(** Number of bound prefixes. O(1). *)

val of_list : (Prefix.t * 'a) list -> 'a t
(** The table of the given bindings; when a prefix repeats, its last
    binding wins, as with repeated {!add}. O(n log n). *)

val map : ('a -> 'b) -> 'a t -> 'b t
(** O(n); the ranges are shared with the input table. *)

val union : (Prefix.t -> 'a -> 'a -> 'a) -> 'a t -> 'a t -> 'a t
(** [union f a b] contains every binding of [a] and [b]; prefixes bound
    in both are merged with [f]. O(n + m), one rebuild. *)
