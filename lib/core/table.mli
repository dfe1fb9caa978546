(** Plain-text table rendering for experiment output (the tables that
    generalize the paper's §3.2 figures; see EXPERIMENTS.md). *)

type t = { header : string list; rows : string list list }

val of_columns : (string * ('a -> string)) list -> 'a list -> t
(** One column per [(header, cell)] pair; one row per value. *)

val render : t -> string
(** Columns are padded to their widest cell; a rule separates the
    header. *)

val print : title:string -> t -> unit
(** Render to stdout with an underlined title and a trailing blank
    line. *)

val ff : float -> string
(** Compact float: ["1.25"], ["inf"], ["-"] for nan. *)

val fi : int -> string
val fb : bool -> string
val fpct : float -> string
(** Percentage with one decimal: [0.5] -> ["50.0%"]. *)
