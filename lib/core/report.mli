(** One-shot results report.

    Runs every figure scenario (the paper's §3.2 figures) and
    experiment and renders a single markdown document — the
    "regenerate all the numbers" button behind EXPERIMENTS.md.
    Deterministic: two runs produce identical text. *)

val generate : unit -> string
(** The full report as markdown: every entry of {!Scenario.figures}
    and {!Experiments.all}, in order. Takes a few seconds (it runs all
    of E1–E37). *)

val write : path:string -> unit
(** Render {!generate} to a file. *)
