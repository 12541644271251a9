(** End-to-end verification of a routing: completeness (every terminal
    pair reachable by following the tables), minimality, and
    deadlock-freedom (per-layer channel dependency graphs rebuilt from
    scratch and checked acyclic — Dally & Seitz's sufficient condition,
    independent of the assignment machinery that produced the layers). *)

type report = {
  stats : Ftable.stats;
  num_layers : int;
  max_layer_seen : int;  (** highest layer actually used by some route *)
  deadlock_free : bool;
}

(** [deadlock_free ?domains ft] rebuilds one CDG per virtual layer from
    the routes and checks each for cycles; [domains > 1] checks layers in
    parallel. *)
val deadlock_free : ?domains:int -> Ftable.t -> bool

(** [report_store ~num_layers store ~layer_of_path] is the verifier over
    routes already materialized into an arena (pair ids as in
    {!Ftable.to_store}; [layer_of_path] indexed by pair id, [num_layers]
    the table's declared count): {!Ftable.validate_store}'s completeness,
    consistency and minimality checks, then one CDG per used layer
    checked acyclic. Read-only, so one arena can feed several checks.
    [Error] if some pair has no path. *)
val report_store : num_layers:int -> Route_store.t -> layer_of_path:int array -> (report, string) result

(** [report ft] materializes [ft]'s routes and runs {!report_store} on
    them; [Error] if some pair is unroutable. *)
val report : Ftable.t -> (report, string) result

val pp_report : Format.formatter -> report -> unit
